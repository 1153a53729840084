"""Exact dense statevector simulation over registers of mixed-dimension subsystems.

A register holds an ordered list of subsystems, each a qubit (dimension 2) or
a qudit (dimension d), with a complex amplitude vector. Amplitude ordering is
big-endian in label-list order: the first label is the most significant digit,
so the basis ket ``|q1 q2>`` sits at flat index ``q1 * d2 + q2``.

A register may also hold a batch of states over the same subsystems: its
amplitudes are then a ``(prod(dims), k)`` matrix, one column per state. Every
operation below acts on each column as it would on a single state; the
register-size cap applies to ``prod(dims)`` only, never to the batch width.

All operations are pure: they return new registers and never mutate inputs.
Projective measurement enumerates every outcome branch deterministically,
ordered by outcome value; the measured subsystem is removed from the register.
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


def max_register_dim() -> int:
    """Register size cap (total dimension); override with DISTGATES_MAX_DIM."""
    raw = os.environ.get("DISTGATES_MAX_DIM", "")
    return int(raw) if raw else DEFAULT_MAX_DIM


def check_register_dim(total: int):
    """Raise ValueError when a register of ``total`` dimensions exceeds the cap."""
    if total > max_register_dim():
        raise ValueError(
            f"register dimension {total} exceeds cap {max_register_dim()} "
            "(set DISTGATES_MAX_DIM to raise it)")


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
        if abs(norm - 1.0).max() > NORM_TOL:  # one norm per column of a batch
            raise ValueError(f"state not normalized: ||amps|| = {norm}")

    @classmethod
    def _wrap(cls, dims, amps, labels) -> "MixedRegister":
        # fast path for operations that preserve validity (unitaries, projections)
        reg = object.__new__(cls)
        object.__setattr__(reg, "dims", dims)
        object.__setattr__(reg, "amps", amps)
        object.__setattr__(reg, "labels", labels)
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
        amps = np.zeros(math.prod(dims), dtype=np.complex128)
        amps[idx] = 1.0
        return cls(dims, amps, tuple(labels))

    def axis(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValueError(f"unknown subsystem label {label!r}") from None

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
        dev = np.max(np.abs(mat @ mat.conj().T - np.eye(dim)))
        if dev > UNITARY_TOL:
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


def apply_unitary(state: MixedRegister, gate: Unitary, targets) -> MixedRegister:
    """Apply ``gate`` to the named target subsystems (identity on the rest)."""
    targets = tuple(targets)
    if len(set(targets)) != len(targets):
        raise ValueError(f"duplicate target in {targets}")
    axes = tuple(state.axis(t) for t in targets)
    tdims = tuple(state.dims[a] for a in axes)
    if tdims != gate.arity:
        raise ValueError(f"gate arity {gate.arity} does not match target dims {tdims}")
    amps = backend.apply_matrix(state.amps, state.dims, axes, gate.entries)
    return MixedRegister._wrap(state.dims, amps, state.labels)


def measure_enumerate(state: MixedRegister, target: str) -> list[BranchResult]:
    """Projectively measure one subsystem, returning every nonzero branch.

    Branches are ordered by outcome value. The measured subsystem is removed
    from each branch state. Each state (each column of a batch) is handled on
    its own: an outcome with probability below ``PRUNE_TOL`` is pruned,
    amplitudes below ``PRUNE_TOL`` are zeroed, and the rest is renormalized.
    A pruned column keeps zero amplitudes and probability 0; an outcome is
    dropped once every column is pruned. Probabilities of returned branches
    sum to 1 per state (within float error).
    """
    axis = state.axis(target)
    d = state.dims[axis]
    batch = state.amps.shape[1:]
    k = batch[0] if batch else 1  # a single state is a batch of one
    t = np.moveaxis(state.amps.reshape(state.dims + (k,)), axis, 0).reshape(d, -1, k)
    new_dims = state.dims[:axis] + state.dims[axis + 1:]
    new_labels = state.labels[:axis] + state.labels[axis + 1:]
    mag2 = np.square(t.real) + np.square(t.imag)
    small = mag2 < PRUNE_TOL ** 2  # |amplitude| < PRUNE_TOL
    ones = np.ones(t.shape[1])  # sums over the remaining subsystems as one matmul
    prob = ones @ mag2
    mag2[small] = 0.0
    norm = np.sqrt(ones @ mag2)
    alive = prob >= PRUNE_TOL
    # a pruned column is scaled by 1 / inf: exact zeros
    amps = t * (1.0 / np.where(alive, norm, np.inf))[:, None]
    amps[small] = 0.0
    branches = []
    for outcome in range(d):
        if not alive[outcome].any():
            continue
        if batch:
            p, sub = np.where(alive[outcome], prob[outcome], 0.0), amps[outcome]
        else:
            p, sub = float(prob[outcome, 0]), amps[outcome, :, 0]
        branch_state = MixedRegister._wrap(new_dims, sub, new_labels)
        branches.append(BranchResult(((target, outcome),), p, branch_state))
    return branches


def fidelity_up_to_phase(a: MixedRegister, b: MixedRegister) -> float | np.ndarray:
    """|<a|b>|^2 — equals 1 iff the states match up to a global phase.

    For batched registers, one fidelity per column pair.
    """
    if a.dims != b.dims:
        raise ValueError(f"dimension mismatch: {a.dims} vs {b.dims}")
    if a.amps.ndim == 1 and b.amps.ndim == 1:
        return float(abs(np.vdot(a.amps, b.amps)) ** 2)
    return np.abs(np.einsum("i...,i...->...", a.amps.conj(), b.amps)) ** 2


def tensor(a: MixedRegister, b: MixedRegister) -> MixedRegister:
    """Kronecker product; ``a``'s subsystems become the more significant digits.

    ``a`` may be a batch (each column is tensored with ``b``); ``b`` may not.
    """
    if set(a.labels) & set(b.labels):
        raise ValueError(f"label collision: {set(a.labels) & set(b.labels)}")
    if b.amps.ndim != 1:
        raise ValueError("the second tensor factor must be a single state")
    check_register_dim(math.prod(a.dims + b.dims))
    batch = a.amps.shape[1:]
    amps = a.amps[:, None] * b.amps.reshape((-1,) + (1,) * len(batch))
    return MixedRegister._wrap(a.dims + b.dims, amps.reshape((-1,) + batch),
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
