"""Exact dense statevector simulation over registers of mixed-dimension subsystems.

A register holds an ordered list of subsystems, each a qubit (dimension 2) or
a qudit (dimension d), with a complex amplitude vector. Amplitude ordering is
big-endian in label-list order: the first label is the most significant digit,
so the basis ket ``|q1 q2>`` sits at flat index ``q1 * d2 + q2``.

A register may also hold a batch of states over the same subsystems: its
amplitudes are then a ``(prod(dims), k)`` matrix, one column per state. Every
operation below acts on each column as it would on a single state; the
register-size cap applies to ``prod(dims)`` only, never to the batch width.

Every operation is pure: it returns new registers and never mutates inputs.
Projective measurement enumerates every outcome branch deterministically,
ordered by outcome value; the measured subsystem is removed from the register.
It reads the register in two passes: one sums the squared amplitudes into
every outcome's weight per column, and one scaled copy of the kept outcomes'
slices holds every kept outcome's renormalized branch; an outcome below
``PRUNE_TOL`` is pruned.

Measurement and the tensor product each have one kernel over bare amplitude
arrays, ``measure_amps`` and ``tensor_amps``. ``measure_enumerate`` and
``tensor`` check and unwrap a register and call them; a branch enumeration,
whose plan has already resolved the layout and made the checks, calls them
directly. From ``backend.POOL_MIN_BYTES`` on, neither broadcasts over the
batch axis, which is innermost and only a few columns wide: a measurement
copies each kept slice and scales it in place along long rows, and a product
writes one block per resource amplitude, zeros without a multiply.

A branch that holds only some rows of its register (a support, see
``simulate``) is measured by ``measure_rows``, with the grouping that
``split_rows`` builds once per support: the held rows gathered by the
measured digit, the squares of each group summed once, and each kept
outcome's group scaled, over the outcome's rows with the digit removed. A
resource on a support is ``tensor_amps`` with the resource's nonzero
amplitudes alone.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from . import backend

DEFAULT_MAX_DIM = 2 ** 14
PRUNE_TOL = 1e-14
NORM_TOL = 1e-10
UNITARY_TOL = 1e-12
RUN_AMPLITUDES = 4096  # of one row of a large measurement's in-place scaling

# measure_enumerate sums over its leading `pre` subsystems with a slice of this
_ONES = np.ones(DEFAULT_MAX_DIM // 2)
_ONES.flags.writeable = False


def max_register_dim() -> int:
    """Register size cap (total dimension); override with DISTGATES_MAX_DIM, a positive integer.

    Raises ValueError, naming the variable, for any other value.
    """
    raw = os.environ.get("DISTGATES_MAX_DIM", "")
    if not raw:
        return DEFAULT_MAX_DIM
    try:
        cap = int(raw)
    except ValueError:
        cap = 0
    if cap < 1:
        raise ValueError(f"DISTGATES_MAX_DIM must be a positive integer, got {raw!r}")
    return cap


def check_register_dim(total: int):
    """Raise ValueError when a register of ``total`` dimensions exceeds the cap."""
    cap = max_register_dim()
    if total > cap:
        raise ValueError(
            f"register dimension {total} exceeds cap {cap} (set DISTGATES_MAX_DIM to raise it)")


@dataclass(frozen=True, eq=False)
class MixedRegister:
    """Normalized pure state over named subsystems of dimension >= 2.

    ``amps`` is a vector, or a matrix whose columns are a batch of states.
    """

    dims: tuple[int, ...]
    amps: np.ndarray
    labels: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "dims", tuple(int(d) for d in self.dims))
        object.__setattr__(self, "labels", tuple(self.labels))
        amps = np.ascontiguousarray(self.amps, dtype=np.complex128)
        object.__setattr__(self, "amps", amps)
        if any(d < 2 for d in self.dims):
            raise ValueError("subsystem dimensions must be >= 2")
        if len(self.labels) != len(self.dims):
            raise ValueError("labels and dims must have equal length")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError("labels must be unique")
        total = math.prod(self.dims) if self.dims else 1
        if amps.ndim not in (1, 2) or amps.shape[0] != total:
            raise ValueError(f"amplitude vector must have length {total}, got {amps.shape}")
        check_register_dim(total)
        norm = np.linalg.norm(amps, axis=0) if amps.ndim == 2 else np.linalg.norm(amps)
        if not abs(norm - 1.0).max() <= NORM_TOL:  # one norm per column; NaN fails too
            raise ValueError(f"state not normalized: ||amps|| = {norm}")

    @classmethod
    def _wrap(cls, dims, amps, labels) -> "MixedRegister":
        # fast path for operations that preserve validity (unitaries, projections)
        reg = object.__new__(cls)
        vars(reg).update(dims=dims, amps=amps, labels=labels)  # one call, past the frozen setattr
        return reg

    @classmethod
    def basis(cls, labels, dims, digits) -> "MixedRegister":
        """Computational basis state |digits> over the given subsystems."""
        dims = tuple(int(d) for d in dims)
        digits = tuple(int(v) for v in digits)
        if len(digits) != len(dims):
            raise ValueError("one digit per subsystem required")
        idx = 0
        for d, v in zip(dims, digits):
            if not 0 <= v < d:
                raise ValueError(f"digit {v} out of range for dimension {d}")
            idx = idx * d + v
        check_register_dim(math.prod(dims))  # before the amplitudes are allocated
        amps = np.zeros(math.prod(dims), dtype=np.complex128)
        amps[idx] = 1.0
        return cls(dims, amps, tuple(labels))

    def axis(self, label: str) -> int:
        return label_axis(self.labels, label)

    def dim_of(self, label: str) -> int:
        return self.dims[self.axis(label)]


@dataclass(frozen=True, eq=False)
class Unitary:
    """Square complex matrix over one or more subsystems, validated unitary."""

    entries: np.ndarray
    arity: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "arity", tuple(int(d) for d in self.arity))
        mat = np.ascontiguousarray(self.entries, dtype=np.complex128)
        object.__setattr__(self, "entries", mat)
        dim = math.prod(self.arity)
        if mat.shape != (dim, dim):
            raise ValueError(f"matrix shape {mat.shape} does not match arity {self.arity}")
        gram = np.empty((1, dim, dim), np.complex128)  # U U+, without OpenBLAS's threads
        backend._matmul_blocks(mat, mat.conj().T[None], gram)
        dev = np.max(np.abs(gram[0] - np.eye(dim)))
        if not dev <= UNITARY_TOL:  # NaN fails too
            raise ValueError(f"matrix is not unitary (max |U U+ - I| = {dev:.3e})")

    @property
    def dim(self) -> int:
        return math.prod(self.arity)

    def apply(self, amps: np.ndarray) -> np.ndarray:
        """The gate applied to a state vector over exactly its subsystems, or to a batch."""
        return self.entries @ amps


@dataclass(frozen=True, eq=False)
class BranchResult:
    """One measurement branch: outcome record, probability, final state.

    ``weight`` counts how many identical measurement branches were merged into
    this record (1 unless branch merging was requested). For a batched state,
    ``probability`` holds one entry per column and ``alive`` marks the columns
    this branch occurs for; a dead column has probability 0 and zero amplitudes.
    """

    outcomes: tuple[tuple[str, int], ...]
    probability: float | np.ndarray
    state: MixedRegister
    weight: int = 1
    alive: np.ndarray | None = None


def label_axis(labels: tuple[str, ...], label: str) -> int:
    """The axis of ``label`` in a register over ``labels``."""
    try:
        return labels.index(label)
    except ValueError:
        raise ValueError(f"unknown subsystem label {label!r}") from None


def target_axes(labels: tuple[str, ...], dims: tuple[int, ...], targets,
                arity: tuple[int, ...]) -> tuple[int, ...]:
    """The axes of a gate's ``targets`` in a register over ``labels`` and ``dims``.

    Raises ValueError for a duplicate target, an unknown label, or target
    dimensions other than the gate's ``arity``.
    """
    targets = tuple(targets)
    if len(targets) > 1 and len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target in {targets}")
    try:
        axes = tuple([labels.index(t) for t in targets])
    except ValueError:
        for t in targets:
            label_axis(labels, t)  # raises for the first unknown label
        raise
    tdims = tuple([dims[a] for a in axes])
    if tdims != arity:
        raise ValueError(f"gate arity {arity} does not match target dims {tdims}")
    return axes


def apply_unitary(state: MixedRegister, gate: Unitary, targets) -> MixedRegister:
    """Apply ``gate`` to the named target subsystems (identity on the rest)."""
    axes = target_axes(state.labels, state.dims, targets, gate.arity)
    amps = backend.apply_matrix(state.amps, state.dims, axes, gate.entries)
    return MixedRegister._wrap(state.dims, amps, state.labels)


def measure_amps(amps: np.ndarray, pre: int, d: int, post: int) -> tuple:
    """Measure the middle axis of amplitudes over ``(pre, d, post)`` subsystems.

    ``amps`` has shape ``(pre * d * post,)`` or ``(pre * d * post, k)``.
    Returns ``(kept, probs, alive, outs)``: the kept outcomes in order, the
    ``(d, k)`` per-column probabilities (0 where a column is pruned) and alive
    mask, and one amplitude array over ``(pre, post)`` per kept outcome, of
    ``amps``'s batch shape. The arithmetic of ``measure_enumerate``, which
    describes it; a branch enumeration calls this directly with the layout
    its plan resolved.
    """
    batch = amps.shape[1:]
    k = batch[0] if batch else 1  # a single state is a batch of one
    large = amps.nbytes >= backend.POOL_MIN_BYTES
    # pass 1: the squared real and imaginary parts, summed over `pre`
    x = amps.view(np.float64).reshape(pre, -1)
    if large:
        weights = np.einsum("ij,ij->j", x, x)
    elif pre == 1:
        weights = (x * x).reshape(-1)  # what the gemv would give, bitwise
    else:  # np.dot, not `@`, which bypasses BLAS and is slower
        weights = np.dot(_ONES[:pre] if pre <= _ONES.size else np.ones(pre), x * x)
    prob = weights.reshape(d, post, k, 2).sum(axis=(1, 3))
    alive = prob >= PRUNE_TOL
    # a pruned column is scaled by 1 / inf: exact zeros
    scale = 1.0 / np.sqrt(np.where(alive, prob, np.inf))
    kept = [outcome for outcome, any_alive in enumerate(alive.any(axis=1).tolist()) if any_alive]
    # pass 2: outs[i] is the state of the i-th kept outcome
    t = amps.reshape(pre, d, post, k)
    if large:  # copy each slice, then scale it along rows of about RUN_AMPLITUDES
        rows = math.gcd(pre * post, max(1, RUN_AMPLITUDES // k))
        tiled = np.tile(scale, rows)
        outs = []
        for outcome in kept:
            out = np.empty((pre * post,) + batch, np.complex128)
            np.copyto(out.reshape(pre, post, k), t[:, outcome])
            view = out.reshape(-1, rows * k)
            view *= tiled[outcome]
            outs.append(out)
    else:
        t = t.transpose(1, 0, 2, 3)
        scaled = np.empty((len(kept), pre, post, k), dtype=np.complex128)
        if len(kept) == d:
            np.multiply(t, scale[:, None, None, :], out=scaled)
        else:  # a dropped outcome is neither copied nor held
            for i, outcome in enumerate(kept):
                np.multiply(t[outcome], scale[outcome], out=scaled[i])
        outs = scaled.reshape((len(kept), pre * post) + batch)
    return kept, np.where(alive, prob, 0.0), alive, outs


def split_rows(rows: np.ndarray, d: int, post: int) -> tuple[tuple, list]:
    """``(plan, outcome_rows)`` of measuring the axis of ``d`` levels and ``post`` rows
    below it, on a branch that holds only the register ``rows`` (sorted).

    ``outcome_rows[o]`` are the rows with digit o, that digit removed (sorted;
    None when there are none). ``plan`` is ``measure_rows``'s: the gather that
    groups the rows by digit (None when they are grouped already), the first
    position of each nonempty group, the digits of those groups, the size of
    every group when all d are equally large (else 0), and each digit's
    ``(start, stop)`` in the grouped rows.
    """
    digit = rows // post % d
    order = np.argsort(digit, kind="stable")
    counts = np.bincount(digit, minlength=d)
    present = np.flatnonzero(counts)
    starts = np.concatenate(([0], np.cumsum(counts)[:-1]))
    grouped = rows[order]
    outcome_rows = []
    for o in range(d):
        held = grouped[starts[o]:starts[o] + counts[o]]
        outcome_rows.append(held // (d * post) * post + held % post if held.size else None)
    if np.array_equal(order, np.arange(rows.size)):
        order = None
    equal = int(counts[0]) if np.all(counts == counts[0]) else 0
    spans = [(int(s), int(s + c)) for s, c in zip(starts, counts)]
    return (order, starts[present], present, equal, spans), outcome_rows


def measure_rows(amps: np.ndarray, d: int, plan: tuple) -> tuple:
    """``measure_amps`` on a branch that holds only some register rows (``split_rows``).

    ``amps`` is ``(rows, k)``. Returns ``(kept, probs, alive, outs)`` as
    ``measure_amps`` does, each kept outcome's amplitudes over the rows of
    ``split_rows``'s ``outcome_rows``. Rows a branch does not hold are zeros,
    which add nothing to a probability, so only the held ones are read: once
    for the squares summed per digit group, once for the scaled copies.
    """
    order, starts, present, equal, spans = plan
    k = amps.shape[1]
    grouped = amps if order is None else np.take(amps, order, axis=0)
    x = grouped.view(np.float64)
    weights = np.add.reduceat(x * x, starts, axis=0).reshape(-1, k, 2).sum(axis=2)
    if present.size == d:
        prob = weights
    else:
        prob = np.zeros((d, k))
        prob[present] = weights
    alive = prob >= PRUNE_TOL
    scale = 1.0 / np.sqrt(np.where(alive, prob, np.inf))
    kept = [outcome for outcome, any_alive in enumerate(alive.any(axis=1).tolist()) if any_alive]
    if equal:
        scaled = grouped.reshape(d, equal, k) * scale[:, None, :]
        outs = [scaled[outcome] for outcome in kept]
    else:
        outs = [grouped[slice(*spans[outcome])] * scale[outcome] for outcome in kept]
    return kept, np.where(alive, prob, 0.0), alive, outs


def measure_enumerate(state: MixedRegister, target: str) -> list[BranchResult]:
    """Projectively measure one subsystem, returning every nonzero branch.

    Branches are ordered by outcome value. The measured subsystem is removed
    from each branch state. Each state (each column of a batch) is handled on
    its own: an outcome with probability below ``PRUNE_TOL`` is pruned, and
    the rest is renormalized. A pruned column keeps zero amplitudes and
    probability 0, and is False in the branch's ``alive`` mask (a batch only);
    an outcome is dropped once every column is pruned.
    Probabilities of returned branches sum to 1 per state (within float error).

    The arithmetic is ``measure_amps``, the one kernel a branch enumeration
    also calls. The register is read twice. The first pass squares the real
    and imaginary parts of every amplitude and sums them over the subsystems
    before the measured one, and then over the few entries left for each
    (outcome, column) weight; every outcome's probability and scale follow
    from those weights at once. On a small register the sum over the leading
    subsystems is one matrix-vector product of the squares (just the squares
    when there are none); from ``backend.POOL_MIN_BYTES`` on it is one
    ``einsum``, which needs neither a squared copy nor a BLAS call, whose
    threads would spin. The second pass, on a small register, copies the kept
    outcomes' slices, scaled, into one buffer with the measured axis first, so
    each kept outcome's state is a contiguous slice of it (one multiply when
    every outcome is kept). On a large register it copies each kept outcome's
    slice into a buffer of its own and scales it in place along rows of about
    ``RUN_AMPLITUDES`` amplitudes, with the per-column scales tiled to match:
    a broadcast over a batch of k columns would run numpy's inner loop only k
    amplitudes long. Both give the same products, bitwise. The input is never
    written or aliased.
    """
    axis = state.axis(target)
    dims = state.dims
    kept, probs, alive, outs = measure_amps(state.amps, math.prod(dims[:axis]), dims[axis],
                                            math.prod(dims[axis + 1:]))
    new_dims = dims[:axis] + dims[axis + 1:]
    new_labels = state.labels[:axis] + state.labels[axis + 1:]
    batch = state.amps.ndim == 2
    if not batch:
        probs = probs[:, 0].tolist()
    return [BranchResult(((target, outcome),), probs[outcome],
                         MixedRegister._wrap(new_dims, out, new_labels),
                         1, alive[outcome] if batch else None)
            for out, outcome in zip(outs, kept)]


def fidelity_up_to_phase(a: MixedRegister, b: MixedRegister) -> float | np.ndarray:
    """|<a|b>|^2 — equals 1 iff the states match up to a global phase.

    For batched registers, one fidelity per column pair.
    """
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    if a.amps.ndim == 1 and b.amps.ndim == 1:
        return float(abs(np.vdot(a.amps, b.amps)) ** 2)
    return np.abs(np.einsum("i...,i...->...", a.amps.conj(), b.amps)) ** 2


def tensor_amps(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of amplitudes: ``a`` (a state or a batch) with the single state ``b``.

    The arithmetic of ``tensor``, which describes it, without its checks; a
    branch enumeration calls this directly, its plan having made them.
    """
    batch = a.shape[1:]
    n, m = a.shape[0], b.shape[0]
    shape = (n * m,) + batch
    if a.nbytes * m < backend.POOL_MIN_BYTES:
        return (a[:, None] * b.reshape((-1,) + (1,) * len(batch))).reshape(shape)
    out = np.empty(shape, np.complex128)
    blocks = out.reshape((n, m) + batch)
    start = 0  # the first block not yet written
    for j in np.flatnonzero(b).tolist():
        if j > start:
            blocks[:, start:j] = 0
        np.multiply(a, b[j], out=blocks[:, j])
        start = j + 1
    if start < m:
        blocks[:, start:] = 0
    return out


def tensor(a: MixedRegister, b: MixedRegister) -> MixedRegister:
    """Kronecker product; ``a``'s subsystems become the more significant digits.

    ``a`` may be a batch (each column is tensored with ``b``); ``b`` may not.
    The arithmetic is ``tensor_amps``, the one kernel a branch enumeration
    also calls. A small product is one broadcast multiply. From
    ``backend.POOL_MIN_BYTES`` on, the product is written one block per
    amplitude of ``b``: ``a`` times each nonzero amplitude, and zeros for each
    run of zero amplitudes, where the broadcast would multiply every zero (a
    GHZ state has d nonzeros out of d^n) over a batch axis only k columns
    long. The values are those of the broadcast. Neither factor is written.
    """
    if set(a.labels) & set(b.labels):
        raise ValueError(f"label collision: {set(a.labels) & set(b.labels)}")
    if b.amps.ndim != 1:
        raise ValueError("the second tensor factor must be a single state")
    check_register_dim(math.prod(a.dims + b.dims))
    return MixedRegister._wrap(a.dims + b.dims, tensor_amps(a.amps, b.amps),
                               a.labels + b.labels)


def permute(state: MixedRegister, labels) -> MixedRegister:
    """Reorder subsystems into the given label order (same label set)."""
    labels = tuple(labels)
    if sorted(labels) != sorted(state.labels):
        raise ValueError(f"{labels} is not a permutation of {state.labels}")
    if labels == state.labels:
        return state
    perm = tuple(state.axis(l) for l in labels)
    batch = state.amps.shape[1:]
    t = state.amps.reshape(state.dims + batch).transpose(perm + (len(perm),) * len(batch))
    amps = np.ascontiguousarray(t).reshape(state.amps.shape)
    return MixedRegister._wrap(tuple(state.dims[p] for p in perm), amps, labels)


def random_register(labels, dims, seed=None) -> MixedRegister:
    """Haar-ish random pure state: normalized complex Gaussian amplitudes."""
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    n = math.prod(tuple(dims))
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return MixedRegister(tuple(dims), vec / np.linalg.norm(vec), tuple(labels))
