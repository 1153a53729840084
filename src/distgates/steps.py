"""The steps a compiled plan runs, and the branches they run on.

A step is a function from a frontier of branches (``_Branch``), whether the
run owns its large arrays (see ``backend``) and whether branches merge, to
the next frontier; ``simulate`` compiles a circuit into them and runs them
(``simulate.run_steps``). Each branch holds every row of its register, or
only the rows of a support (``_Support``): the row-sparse branches that a
GHZ resource starts. A step picks the kernel per branch: the register
kernel for a dense branch (``rows`` None), the row kernel of its support
for a sparse one. The module docstring of ``simulate`` says why a support
loses nothing, how the row bound is kept and when a branch returns to
dense.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from . import backend
from .statevec import (MixedRegister, Unitary, measure_amps, measure_rows, split_rows,
                       tensor_amps)

if TYPE_CHECKING:
    from .simulate import _Gadget


def _ghz_amps(d: int, n: int) -> np.ndarray:
    """The amplitudes of the n-party GHZ state over Z_d (a pair when n = 2)."""
    amps = np.zeros(d ** n, dtype=np.complex128)
    step = (d ** n - 1) // (d - 1)  # |kk...k> has flat index k * (1 + d + d^2 + ...)
    amps[np.arange(d) * step] = 1 / math.sqrt(d)
    return amps


@lru_cache(maxsize=1024)
def _resource_amps(d: int, n: int) -> np.ndarray:
    """The read-only amplitudes of an n-party resource over Z_d, shared by every plan.

    Validated once as a register of their own (``MixedRegister``); a resource
    instruction brings its labels.
    """
    amps = MixedRegister((d,) * n, _ghz_amps(d, n), tuple(map(str, range(n)))).amps
    amps.flags.writeable = False
    return amps


@lru_cache(maxsize=1024)
def _resource_nonzero(d: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """``(rows, values)``: the nonzero amplitudes of ``_resource_amps(d, n)``, read-only."""
    amps = _resource_amps(d, n)
    rows = np.flatnonzero(amps)
    values = amps[rows]
    rows.flags.writeable = values.flags.writeable = False
    return rows, values


@lru_cache(maxsize=1024)
def _sparse(d: int, n: int) -> bool:
    """Whether the resource starts a support: at most a quarter of its amplitudes are nonzero
    (every GHZ state of three or more parties and every d >= 4 pair, but not a qubit Bell pair)."""
    return 4 * _resource_nonzero(d, n)[0].size <= d ** n


ROW_CACHE_BYTES = 8 * 2 ** 20  # of row arrays; the benchmark's three workloads hold about 1 MiB


class _RowCache:
    """A least-recently-used map whose values hold at most ``limit`` bytes of arrays.

    It holds every support a step makes of a support and its row plan (see
    ``_Support``), so a later run that takes the same steps reuses them, and
    the composed kernel plan of each fused run (``_composed``). The
    oldest entries go first once the sum passes ``limit``; a dropped entry is
    only built again.
    """

    __slots__ = ("entries", "nbytes", "limit")

    def __init__(self, limit: int):
        self.entries: dict = {}  # key -> (value, bytes), oldest first
        self.nbytes, self.limit = 0, limit

    def get(self, key, build):
        """The value under ``key``, ``build()`` and kept when there is none."""
        entry = self.entries.pop(key, None)
        if entry is None:
            value = build()
            entry = value, _nbytes(value)
            self.nbytes += entry[1]
            while self.entries and self.nbytes > self.limit:
                self.nbytes -= self.entries.pop(next(iter(self.entries)))[1]
        self.entries[key] = entry
        return entry[0]


def _nbytes(value) -> int:
    """The bytes of the arrays in ``value``, a cache value of nested tuples, lists and supports."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, _Support):
        return value.rows.nbytes
    if isinstance(value, (tuple, list)):
        return sum(map(_nbytes, value))
    return 0


class _Support:
    """The register rows a sparse branch holds: ``rows``, sorted, of a register of ``size``.

    What a step makes of these rows, and a row plan for it, is built once and
    kept in ``_ROWS`` under the support, compared by identity, and the step:
    a run's first support comes from there too (``_root``), so every later
    plan that takes the same steps reaches the same supports and reuses their
    row plans. Each step also keeps what it found per support for the life of
    its plan, so a run does not depend on what the cache drops.
    """

    __slots__ = ("rows", "size")

    def __init__(self, rows: np.ndarray, size: int):
        rows.flags.writeable = False
        self.rows, self.size = rows, size


_ROWS = _RowCache(ROW_CACHE_BYTES)


@contextmanager
def _private_rows():
    """Run with a row cache of its own, dropped on exit: for a gadget build, whose supports no
    later run meets, so that its row plans take no room from those of the runs."""
    global _ROWS
    kept, _ROWS = _ROWS, _RowCache(ROW_CACHE_BYTES)
    try:
        yield
    finally:
        _ROWS = kept


def _support(rows: np.ndarray, size: int, like: _Support | None = None) -> _Support | None:
    """The support of ``rows`` (sorted) in a register of ``size``: None when that is every row,
    ``like`` when it holds the same rows."""
    if rows.size == size:
        return None
    if like is not None and rows.size == like.rows.size and np.array_equal(rows, like.rows):
        return like
    return _Support(rows, size)


def _grow(rows: np.ndarray, d: int, n: int) -> np.ndarray:
    """The rows of a register of rows ``rows`` (sorted) times the nonzero rows of the n-party
    resource over Z_d, sorted."""
    return (rows[:, None] * d ** n + _resource_nonzero(d, n)[0]).ravel()


def _root(size: int, d: int, n: int) -> _Support:
    """The support a sparse resource starts on a dense register of ``size`` rows."""
    return _ROWS.get(("root", size, d, n),
                     lambda: _Support(_grow(np.arange(size), d, n), size * d ** n))


def _linked(support: _Support, matrix: np.ndarray, dims: tuple[int, ...],
            axes: tuple[int, ...]) -> tuple:
    """``(support after, row plan, matrix)`` of ``matrix`` on ``axes`` of the rows ``support``,
    kept under the matrix's ``id`` and the layout (the entry holds the matrix, so the id
    stays its own)."""
    def build():
        rows, plan = backend.row_plan(matrix, backend.row_layout(dims, axes, support.rows))
        return _support(rows, support.size, support), plan, matrix
    return _ROWS.get((support, id(matrix), dims, axes), build)


def _tensored(support: _Support, d: int, n: int) -> _Support:
    """The support of the rows ``support`` times an n-party resource over Z_d."""
    return _ROWS.get((support, "resource", d, n),
                     lambda: _Support(_grow(support.rows, d, n), support.size * d ** n))


def _split(support: _Support, d: int, post: int) -> tuple:
    """``(measure_rows plan, support of each outcome)`` of measuring the axis of d levels and
    ``post`` rows below it; outcomes that keep equal rows share one support, and an outcome
    without rows, which is never kept, has None."""
    def build():
        plan, outcome_rows = split_rows(support.rows, d, post)
        supports: list = []
        for rows in outcome_rows:
            held = None if rows is None else _support(rows, support.size // d)
            if held is not None:
                held = next((s for s in supports if s is not None
                             and np.array_equal(s.rows, rows)), held)
            supports.append(held)
        return plan, supports
    return _ROWS.get((support, "measure", d, post), build)


@dataclass(eq=False, slots=True)
class _Branch:
    amps: np.ndarray  # (rows, k): every register row, or those of ``rows``, in order
    prob: np.ndarray  # per column; 0 where the column is dead
    outcomes: tuple[tuple[str, int], ...]
    values: dict[str, int]
    weight: int
    alive: np.ndarray
    rows: _Support | None = None  # the rows held, over the plan's labels and dims at this step


@lru_cache(maxsize=backend.CACHE_SIZE)
def _spreads(gate: Unitary) -> bool:
    """``backend.spreads`` of a cached gate, keyed by the gate object (see ``_gate_plan``)."""
    return backend.spreads(gate.entries)


@lru_cache(maxsize=backend.CACHE_SIZE)
def _gate_plan(gate: Unitary, dims: tuple[int, ...], axes: tuple[int, ...]) -> tuple:
    """The kernel plan of a cached gate (``gate_unitary``, ``gate_power``) on a register layout.

    Keyed by the gate object, which the cache holds and whose entries are
    read-only, so a plan needs no content key (see ``backend``).
    """
    return backend.kernel_plan(gate.entries, dims, axes, cached=False)


def _apply(br: _Branch, gate: Unitary, dims: tuple[int, ...], axes: tuple[int, ...],
           plans: dict, key, owned: bool):
    """Apply ``gate`` on ``axes`` to ``br``: the register kernel to a dense branch, the row kernel
    of its support to a sparse one, each looked up once and kept in ``plans`` under ``key``."""
    support = br.rows
    plan = plans.get(key)
    if plan is None:
        plan = plans[key] = (_gate_plan(gate, dims, axes) if support is None
                             else _linked(support, gate.entries, dims, axes))
    if support is None:
        br.amps = backend.apply_matrix(br.amps, dims, axes, gate.entries, plan, owned)
    else:
        br.rows = plan[0]
        br.amps = backend.apply_rows(br.amps, gate.entries, plan[1])


def _gate_step(dims: tuple[int, ...], axes: tuple[int, ...], gate: Unitary):
    """A LocalGate: one matrix on fixed axes of every branch (``_apply``)."""
    plans: dict = {}  # support (None: dense) -> the kernel plan, or _linked's entry

    def run(frontier: list[_Branch], owned: bool, merge: bool) -> list[_Branch]:
        for br in frontier:
            _apply(br, gate, dims, axes, plans, br.rows, owned)
        return frontier
    return run


def _cond_step(dims: tuple[int, ...], axes: tuple[int, ...], terms: tuple, mod: int,
               powers: tuple[Unitary, ...]):
    """A CondGate: ``powers[v - 1]``, the gate to the power v, where the value v of its condition,
    the sum of the ``terms``' values mod ``mod``, is nonzero (``_apply``). Each power's kernel is
    looked up when its value first occurs."""
    plans: dict = {}  # (value, support) -> as in _gate_step

    def run(frontier: list[_Branch], owned: bool, merge: bool) -> list[_Branch]:
        for br in frontier:
            values, value = br.values, 0
            for term in terms:  # a loop: a list comprehension's call costs more than the sum
                value += values[term]
            value %= mod
            if value:
                _apply(br, powers[value - 1], dims, axes, plans, (value, br.rows), owned)
        return frontier
    return run


def _resource_step(factor: np.ndarray, d: int, n: int, size: int):
    """A resource state, its amplitudes ``factor`` over n parties of dimension d, appended to every
    branch's register of ``size`` rows.

    A sparse resource (``_sparse``) gives each branch the support of its rows
    times the resource's nonzero rows; a dense one keeps a dense branch dense
    and grows a sparse one the same way.
    """
    sparse = _sparse(d, n)
    nonzero = _resource_nonzero(d, n)[1]
    moves: dict = {}  # support (None: dense) -> the support after

    def run(frontier: list[_Branch], owned: bool, merge: bool) -> list[_Branch]:
        for br in frontier:
            support = br.rows
            if support is None and not sparse:
                br.amps = tensor_amps(br.amps, factor)
                continue
            after = moves.get(support)
            if after is None:
                after = moves[support] = (_root(size, d, n) if support is None
                                          else _tensored(support, d, n))
            br.rows = after
            br.amps = tensor_amps(br.amps, nonzero)
        return frontier
    return run


def _measure_step(dims: tuple[int, ...], axis: int, symbol: str):
    """A measurement of ``axis``: every branch forks into one branch per kept outcome.

    A sparse branch's outcomes each keep the rows of the support with that
    outcome's digit, the digit removed (``_split``).
    """
    pre, d, post = math.prod(dims[:axis]), dims[axis], math.prod(dims[axis + 1:])
    records = [((symbol, outcome),) for outcome in range(d)]
    dense = (None,) * d  # the support of each outcome of a dense branch
    splits: dict = {}  # support -> _split's entry

    def run(frontier: list[_Branch], owned: bool, merge: bool) -> list[_Branch]:
        forked: list[_Branch] = []
        for br in frontier:
            support = br.rows
            if support is None:
                kept, probs, alive, outs = measure_amps(br.amps, pre, d, post)
                supports = dense
            else:
                entry = splits.get(support)
                if entry is None:
                    entry = splits[support] = _split(support, d, post)
                plan, supports = entry
                kept, probs, alive, outs = measure_rows(br.amps, d, plan)
            for outcome, out in zip(kept, outs):
                forked.append(_Branch(
                    out, br.prob * probs[outcome], br.outcomes + records[outcome],
                    {**br.values, symbol: outcome}, br.weight, br.alive & alive[outcome],
                    supports[outcome]))
        return forked
    return run


def _group_plan(gadget: _Gadget, dims: tuple[int, ...], axes: tuple[int, ...],
                index: int) -> tuple:
    """The kernel plan of the unitary of ``gadget``'s group ``index`` on a register layout,
    built once and kept by the gadget."""
    key = (dims, axes, index)
    plan = gadget.plans.get(key)
    if plan is None:
        plan = gadget.plans[key] = backend.kernel_plan(gadget.groups[index][1], dims, axes,
                                                       cached=False)
    return plan


def _gadget_step(gadget: _Gadget, dims: tuple[int, ...], axes: tuple[int, ...],
                 symbols: tuple[str, ...], explicit: list):
    """A contracted gadget.

    With merging, every branch forks into the gadget's groups, each of its
    group's weight, applying the group's unitary to the data ``axes`` (the row
    kernel of each group on a sparse branch); a branch that forks into more
    than one group owns its amplitudes for none of its applies, since they
    all read them. Without merging, the gadget's per-instruction steps run
    instead, so that every outcome record is a branch of its own:
    ``explicit`` holds each instruction's step constructor and arguments (none
    for a step that runs nothing), merge key spec and index, and the steps are
    built when an unmerged run first needs them.
    """
    fork: list = []  # per group: (u, plan, outcomes, values, count, p), made at the first use
    steps: list = []  # the per-instruction steps, built at the first unmerged run
    moves: dict = {}  # support -> _linked's entry per group

    def run(frontier: list[_Branch], owned: bool, merge: bool) -> list[_Branch]:
        if not merge:
            if not steps:
                steps.extend(make[0](*make[1:]) for make, _, _ in explicit if make)
            for step in steps:
                frontier = step(frontier, owned, False)
            return frontier
        if not fork:
            for index, (outcomes, u, count, p) in enumerate(gadget.groups):
                fork.append((u, _group_plan(gadget, dims, axes, index),
                             tuple(zip(symbols, outcomes)), dict(zip(symbols, outcomes)), count, p))
        owned = owned and len(fork) == 1
        forked: list[_Branch] = []
        for br in frontier:
            support = br.rows
            if support is None:
                for u, plan, outcomes, values, count, p in fork:
                    forked.append(_Branch(
                        backend.apply_matrix(br.amps, dims, axes, u, plan, owned), br.prob * p,
                        br.outcomes + outcomes, {**br.values, **values}, br.weight * count,
                        br.alive))
                continue
            linked = moves.get(support)
            if linked is None:
                linked = moves[support] = [_linked(support, u, dims, axes) for u, *_ in fork]
            for (u, _, outcomes, values, count, p), (after, plan, _) in zip(fork, linked):
                forked.append(_Branch(
                    backend.apply_rows(br.amps, u, plan), br.prob * p, br.outcomes + outcomes,
                    {**br.values, **values}, br.weight * count, br.alive, after))
        return forked
    return run


def _composed(dims: tuple[int, ...], kernels: tuple) -> tuple:
    """``(plan, matrix)``: the ``(kernel plan, matrix)`` pairs ``kernels``, of diagonal and
    monomial matrices on a register over ``dims``, applied in order, as one plan.

    The plan is ``((R, -1), phase, src, None, None)`` over the R rows of the
    register, which ``backend.apply_matrix`` runs as one multiply or one gather
    and a multiply: a member's gather ``s`` and row phases ``ph`` turn the
    composition's into ``src[s]`` and ``phase[s] * ph``. ``matrix`` is a
    member's, of the composition's kind, which the plan does not read. Kept in
    ``_ROWS`` under the members' plan objects and the layout; the entry holds
    those plans, so their ids stay their own.
    """
    plans = tuple([plan for plan, _ in kernels])

    def build():
        size = math.prod(dims)
        phase = src = None
        for shape, ph, s, _, _ in plans:
            if s is not None:
                src = s if src is None else src[s]
                phase = None if phase is None else phase[s]
            if ph is not None:
                rows = shape[:-1] + (size // math.prod(shape[:-1]),)
                ph = np.broadcast_to(ph, rows).reshape(-1)
                phase = ph if phase is None else phase * ph
        if phase is not None:
            phase = backend._frozen(phase.reshape(size, 1))
        if src is not None:
            src = backend._frozen(src)
        matrix = next(mat for plan, mat in kernels if (plan[2] is None) == (src is None))
        return ((size, -1), phase, src, None, None), matrix, plans
    return _ROWS.get(("fused", dims, tuple(map(id, plans))), build)[:2]


def _fused_step(dims: tuple[int, ...], members: tuple, kernels: tuple, fold: tuple):
    """A run of steps that each apply one diagonal or monomial map to every dense branch, as one.

    ``kernels`` holds each member's ``(kernel plan, matrix)``, and their
    composition (``_composed``) runs as one ``backend.apply_matrix`` call.
    ``fold`` is the members' classical part, folded in order: ``(outcomes,
    values, weight, probs)``, the outcome records and symbol values the
    members' contracted gadgets add, the product of their weights, and their
    probabilities other than 1, which multiply each branch's in member order
    (so that it is the bits the members compute). Without merging the member
    steps run in order instead, so that every record stays a branch of its own
    (see ``simulate``): ``members`` holds their constructors and arguments, and
    they are built when an unmerged run first needs them.
    """
    plan, matrix = _composed(dims, kernels)
    outcomes, values, weight, probs = fold
    steps: list = []  # the member steps, built at the first unmerged run

    def run(frontier: list[_Branch], owned: bool, merge: bool) -> list[_Branch]:
        if not merge:
            if not steps:
                steps.extend(make[0](*make[1:]) for make in members)
            for step in steps:
                frontier = step(frontier, owned, False)
            return frontier
        apply = backend.apply_matrix
        for br in frontier:
            br.amps = apply(br.amps, dims, (), matrix, plan, owned)
            if outcomes:
                prob = br.prob
                for p in probs:
                    prob = prob * p
                br.prob = prob
                br.outcomes += outcomes
                br.values = {**br.values, **values}
                br.weight *= weight
        return frontier
    return run


def _gap(a: _Branch, b: _Branch) -> float:
    """``abs(a - b).max()`` of two branches on different supports, a row one lacks reading 0.

    How the supports meet is worked out once per pair of supports and kept in
    ``_ROWS``: equal rows (None), or the union's size and where each branch's
    rows sit in it (None for a dense branch).
    """
    if a.rows is None:
        a, b = b, a
    union = _ROWS.get((a.rows, b.rows), lambda: _union(a.rows, b.rows))
    if union is None:
        return abs(a.amps - b.amps).max()
    size, at_a, at_b = union
    if at_b is None:
        diff = -b.amps
    else:
        diff = np.zeros((size, b.amps.shape[1]), np.complex128)
        diff[at_b] = -b.amps
    diff[at_a] += a.amps
    return abs(diff).max()


def _union(a: _Support, b: _Support | None) -> tuple | None:
    """``_gap``'s view of the supports ``a`` and ``b``: None when they hold the same rows, else
    ``(size, where a's rows sit, where b's rows sit)`` in their union (None for a dense b)."""
    if b is None:
        return a.size, a.rows, None
    if np.array_equal(a.rows, b.rows):
        return None
    rows = np.sort(np.concatenate((a.rows, b.rows)))
    rows = rows[np.insert(rows[1:] != rows[:-1], 0, True)]  # np.union1d imports numpy.ma
    return rows.size, np.searchsorted(rows, a.rows), np.searchsorted(rows, b.rows)
