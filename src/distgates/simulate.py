"""Execute distributed circuits with full measurement-branch enumeration.

Every projective measurement forks the frontier into one branch per nonzero
outcome; classically conditioned corrections apply the named gate raised to
the condition's value. Results are deterministic and ordered by outcome
record.

The frontier carries a batch of inputs at once. The circuits are linear in
their input, so one enumeration serves every input: each branch holds a
``(state_dim, k)`` amplitude matrix, one column per input, and a boolean
per-column *alive* mask. A measurement applies the single-state rule to each
column on its own (prune an outcome below ``PRUNE_TOL``, renormalize the
rest); a pruned column is dead in that branch, and a branch is dropped once
none of its columns is alive. The measurement reads the register twice: one
matrix-vector product and a short sum give every outcome's per-column weight,
and one scaled copy per kept outcome gives its branch (see
``statevec.measure_amps``). A single input state is the k = 1 case of the
same code.

Teleported-gate protocols reconverge: once corrections have been applied, all
branches hold the same state. ``merge_equal=True`` collapses branches whose
labels, dims, alive masks, still-referenced outcome symbols and whole
amplitude matrices agree (``allclose`` with ``atol=MERGE_ATOL``), keeping
enumeration polynomial for circuits with many teleported gates while the
reported ``weight`` preserves the underlying branch count. Candidates are
bucketed by the exactly-compared fields, and each is compared with the kept
branches of its bucket in order, so the merges, and the order of the kept
branches, are those of a plain first-match scan.

A merge runs only after a step where branches can meet: a conditioned gate,
a measurement, or a ClassicalSend after which a later condition no longer
reads some outcome symbol (see ``Plan``). A LocalGate or a resource applies
one map to every branch, and the merge before it has already compared those
branches under the same live symbols. One caveat: the merge test is on the
largest amplitude difference, and a dense gate or a resource on
d-dimensional subsystems can shrink that by up to a factor sqrt(d) (a
resource's amplitudes are 1/sqrt(d)). A pair just over ``MERGE_ATOL`` before
such a step may therefore be within it after, and then merges at the next
conditioned gate or measurement instead, where merging after every
instruction would have merged it at once.

Every branch builds the same registers: resources add subsystems and
measurements remove them, the same way in every branch. So ``peak_register_dim``
finds the largest register from the instruction list alone, and an over-cap
circuit is rejected before anything is simulated. Likewise, without merging, a
circuit whose measurements could fork more than ``MAX_BRANCHES`` branches
(``unmerged_branch_bound``) is rejected up front.

For the same reason the instruction list is compiled once into a ``Plan``
(``compile_plan``) before any branch runs, walking the register layout the way
``peak_register_dim`` does. A gate gets its target axes, its matrix and the
matrix's kernel plan (``backend.kernel_plan``), and a conditioned gate its
axes, with the duplicate-target, unknown-label and arity checks; the powers a
condition asks for, and their kernel plans, are resolved once per distinct
value.
A resource gets its state's amplitudes and the label-collision check, and a
measurement its target's axis and the sizes around it. A bad instruction
therefore raises ``ValueError`` before any kernel runs. The branch loop holds
bare amplitude matrices (``_Branch``: amplitudes, per-column probability and
alive mask, outcome record, symbol values, weight) and hands them straight
to the kernels: each gate to ``backend.apply_matrix``, each measurement to
``statevec.measure_amps`` and each resource to ``statevec.tensor_amps``,
which are also the arithmetic of ``measure_enumerate`` and ``tensor``, minus
their per-call label lookups and checks. ``verify`` compiles one plan and
shares it across its input chunks.

A run whose peak register reaches ``backend.POOL_MIN_BYTES`` owns one
``backend.BufferPool``, handed to every gate step and dropped when the run
returns (a smaller run has none). Its one foreign array is the caller's
input batch; every other matrix in the frontier belongs to exactly one
branch, so ``backend.apply_matrix`` may write a large one in place or
recycle it (see ``backend``). Measurements, resources and merges recycle
nothing: their kernels are pure, and a merged branch's matrix is simply
dropped. Cached resource states and gate matrices are only read.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import backend
from .circuit import RESOURCE_KINDS, Condition, DistCircuit, Instruction
from .gates import gate_arity, gate_power, gate_unitary
from .statevec import (BranchResult, MixedRegister, check_register_dim, label_axis,
                       measure_amps, target_axes, tensor_amps)

MERGE_ATOL = 1e-12
MAX_BRANCHES = 2 ** 16
MAX_INPUT_AMPLITUDES = 2 ** 24  # random inputs times their dimension; 256 MiB of amplitudes
MAX_SWEEP_QUBITS = 2 ** 20  # the summed n of the rows of an `estimate --sweep`; a row costs O(n)
MAX_COMPILE_PAIRS = 2 ** 15  # qubit pairs of a `compile` shape (n <= 256); a build costs O(pairs)


def infer_dims(circuit: DistCircuit) -> dict[str, int]:
    """Subsystem dimensions implied by the circuit's gates and resources."""
    dims: dict[str, int] = {}
    for ins in circuit.instructions:
        if ins.kind in ("LocalGate", "CondGate") and ins.gate is not None:
            pairs = zip(ins.targets, gate_arity(ins.gate))
        elif ins.kind in RESOURCE_KINDS:
            pairs = ((label, ins.dim or 2) for label in ins.targets)
        else:
            continue
        for label, d in pairs:
            if dims.setdefault(label, d) != d:
                raise ValueError(
                    f"subsystem {label!r} used with dimensions {dims[label]} and {d}")
    for label in circuit.inputs:
        dims.setdefault(label, 2)
    return dims


def peak_register_dim(circuit: DistCircuit, upto: int | None = None,
                      dims: dict[str, int] | None = None) -> int:
    """Largest register dimension any branch reaches in the first ``upto`` instructions.

    Computed from the instruction list alone: resources add subsystems and
    measurements remove them, the same way in every branch. ``dims`` is
    ``infer_dims(circuit)``, computed when not given.
    """
    dims = infer_dims(circuit) if dims is None else dims
    present = {label: dims[label] for label in circuit.inputs}
    size = peak = math.prod(present.values())
    for ins in circuit.instructions[:upto]:
        if ins.kind in RESOURCE_KINDS:
            for label in ins.targets:
                present[label] = dims[label]
                size *= dims[label]
        elif ins.kind == "Measure" and ins.targets and ins.targets[0] in present:
            size //= present.pop(ins.targets[0])
        peak = max(peak, size)
    return peak


def unmerged_branch_bound(circuit: DistCircuit, upto: int | None = None,
                          dims: dict[str, int] | None = None) -> int:
    """Most branches an enumeration without merging can reach in the first ``upto`` instructions.

    The product of the measured subsystems' dimensions: one fork per outcome.
    ``dims`` is ``infer_dims(circuit)``, computed when not given.
    """
    dims = infer_dims(circuit) if dims is None else dims
    return math.prod(dims.get(ins.targets[0], 1) for ins in circuit.instructions[:upto]
                     if ins.kind == "Measure" and ins.targets)


@lru_cache(maxsize=1024)
def _resource_state(ins: Instruction) -> MixedRegister:
    d = ins.dim or 2
    n = len(ins.targets)
    amps = np.zeros(d ** n, dtype=np.complex128)
    step = (d ** n - 1) // (d - 1)  # |kk...k> has flat index k * (1 + d + d^2 + ...)
    amps[np.arange(d) * step] = 1 / math.sqrt(d)
    return MixedRegister((d,) * n, amps, ins.targets)


@dataclass(eq=False, slots=True)
class _Branch:
    amps: np.ndarray  # (state_dim, k), over the plan's labels and dims at this step
    prob: np.ndarray  # per column; 0 where the column is dead
    outcomes: tuple[tuple[str, int], ...]
    values: dict[str, int]
    weight: int
    alive: np.ndarray


def _gate_step(dims: tuple[int, ...], axes: tuple[int, ...], matrix: np.ndarray):
    """A LocalGate: one matrix on fixed axes of every branch."""
    plan = backend.kernel_plan(matrix, dims, axes)

    def run(frontier: list[_Branch], pool: backend.BufferPool | None) -> list[_Branch]:
        apply = backend.apply_matrix
        for br in frontier:
            br.amps = apply(br.amps, dims, axes, matrix, plan, pool)
        return frontier
    return run


def _cond_step(dims: tuple[int, ...], axes: tuple[int, ...], condition: Condition, gate: str,
               params: tuple[float, ...]):
    """A CondGate: the gate to the power of the condition's value, where that is nonzero.

    Each power, and its kernel plan, is resolved once, when its value first occurs.
    """
    powers: dict[int, tuple[np.ndarray, tuple]] = {}

    def run(frontier: list[_Branch], pool: backend.BufferPool | None) -> list[_Branch]:
        apply = backend.apply_matrix
        for br in frontier:
            value = condition.evaluate(br.values)
            if value:
                power = powers.get(value)
                if power is None:
                    matrix = gate_power(gate, params, value).entries
                    power = powers[value] = matrix, backend.kernel_plan(matrix, dims, axes)
                br.amps = apply(br.amps, dims, axes, *power, pool)
        return frontier
    return run


def _resource_step(factor: np.ndarray):
    """A resource state, its amplitudes ``factor``, appended to every branch's register."""
    def run(frontier: list[_Branch], pool: backend.BufferPool | None) -> list[_Branch]:
        for br in frontier:
            br.amps = tensor_amps(br.amps, factor)
        return frontier
    return run


def _measure_step(dims: tuple[int, ...], axis: int, symbol: str):
    """A measurement of ``axis``: every branch forks into one branch per kept outcome."""
    pre, d, post = math.prod(dims[:axis]), dims[axis], math.prod(dims[axis + 1:])
    records = [((symbol, outcome),) for outcome in range(d)]

    def run(frontier: list[_Branch], pool: backend.BufferPool | None) -> list[_Branch]:
        forked: list[_Branch] = []
        for br in frontier:
            kept, probs, alive, outs = measure_amps(br.amps, pre, d, post)
            for outcome, out in zip(kept, outs):
                forked.append(_Branch(
                    out, br.prob * probs[outcome], br.outcomes + records[outcome],
                    {**br.values, symbol: outcome}, br.weight, br.alive & alive[outcome]))
        return forked
    return run


class Plan(NamedTuple):
    """A circuit's first ``upto`` instructions resolved once for every branch.

    ``steps`` pairs each step, a function from frontier and the run's pool
    (which only gate steps use) to frontier, with the outcome symbols a later
    condition still reads, the live part of a merge key, or with None when no
    merge follows the step. Branches can only meet after a step that treats
    them differently, or that stops reading a symbol they differ in:

    - a CondGate or a Measure is followed by a merge;
    - a LocalGate or a resource applies one map to every branch and leaves
      the live symbols as they were, so the merge after it would find nothing
      the merge before it missed, and it gets None (but see the caveat in
      the module docstring);
    - a ClassicalSend is free in simulation (the resource tally audits it),
      so its step is None. It gets no pair at all when its live symbols are
      those of the instruction before it: the merge after it would compare
      the same frontier under the same keys as the merge before it, and so
      merge nothing.

    ``labels`` and ``out_dims`` describe the register after the last step.
    """

    circuit: DistCircuit
    upto: int | None
    dims: dict[str, int]
    peak: int
    branch_bound: int
    steps: tuple[tuple[Callable | None, tuple[str, ...] | None], ...]
    labels: tuple[str, ...]
    out_dims: tuple[int, ...]


def _future_symbols(instructions) -> list[tuple[str, ...]]:
    """For each index, the outcome symbols any later condition still reads (sorted)."""
    out = [()] * (len(instructions) + 1)
    live: frozenset[str] = frozenset()
    ordered: tuple[str, ...] = ()
    for i in range(len(instructions) - 1, -1, -1):
        ins = instructions[i]
        if ins.condition is not None and not live.issuperset(ins.condition.terms):
            live = live | frozenset(ins.condition.terms)
            ordered = tuple(sorted(live))
        out[i] = ordered
    return out


def _distance(a: np.ndarray, b: np.ndarray) -> float:
    """A value at most ``MERGE_ATOL`` exactly when ``abs(a - b).max()`` of two large matrices is.

    Compared a block of rows at a time, so the temporaries stay small, up to
    the first block over ``MERGE_ATOL``. A block's largest real or imaginary
    difference m bounds its largest modulus from both sides,
    m <= max |a - b| <= sqrt(2) m, so the modulus is taken only when m alone
    cannot decide; the decisions are those of the modulus.
    """
    rows = max(1, backend.BLOCK_AMPLITUDES // a.shape[1])
    worst = 0.0
    for start in range(0, a.shape[0], rows):
        diff = a[start:start + rows] - b[start:start + rows]
        parts = diff.view(np.float64)
        m = max(parts.max(), -parts.min())
        if MERGE_ATOL / math.sqrt(2) < m <= MERGE_ATOL:  # only the modulus can decide
            m = abs(diff).max()
        worst = max(worst, m)
        if worst > MERGE_ATOL:
            break
    return worst


def _merge(frontier: list[_Branch], live: tuple[str, ...]) -> list[_Branch]:
    """Merge each branch into the first earlier kept branch equal to it (see the module docstring)."""
    merged: list[_Branch] = []
    buckets: dict[tuple, list[_Branch]] = {}  # exact key -> kept branches
    for br in frontier:
        # every branch has the plan's labels and dims, so they are left out of the key
        key = (br.alive.tobytes(), tuple(map(br.values.get, live)))
        bucket = buckets.setdefault(key, [])
        small = br.amps.nbytes < backend.POOL_MIN_BYTES
        for kept in bucket:
            # np.allclose(rtol=0, atol=MERGE_ATOL) on finite amplitudes
            if (abs(kept.amps - br.amps).max() if small else
                    _distance(kept.amps, br.amps)) <= MERGE_ATOL:
                kept.prob = kept.prob + br.prob
                kept.weight += br.weight
                break
        else:
            bucket.append(br)
            merged.append(br)
    return merged


def compile_plan(circuit: DistCircuit, upto: int | None = None) -> Plan:
    """Resolve the first ``upto`` instructions against the register layout (see the module docstring).

    Checks the register cap first, then every instruction, and raises
    ValueError for the first bad one; no kernel runs.
    """
    dims = infer_dims(circuit)
    peak = peak_register_dim(circuit, upto, dims)
    check_register_dim(peak)
    labels = tuple(circuit.inputs)
    reg_dims = tuple(dims[label] for label in labels)
    live_after = _future_symbols(circuit.instructions)
    steps = []
    for i, ins in enumerate(circuit.instructions[:upto]):
        if ins.kind in ("LocalGate", "CondGate"):
            u = gate_unitary(ins.gate, ins.params)
            axes = target_axes(labels, reg_dims, ins.targets, u.arity)
            step = (_gate_step(reg_dims, axes, u.entries) if ins.kind == "LocalGate" else
                    _cond_step(reg_dims, axes, ins.condition, ins.gate, ins.params))
        elif ins.kind in RESOURCE_KINDS:
            resource = _resource_state(ins)
            if collision := set(labels) & set(resource.labels):
                raise ValueError(f"label collision: {collision}")
            step = _resource_step(resource.amps)
            labels, reg_dims = labels + resource.labels, reg_dims + resource.dims
        elif ins.kind == "Measure":
            axis = label_axis(labels, ins.targets[0])
            step = _measure_step(reg_dims, axis, ins.outcome or f"_m{i}")
            labels = labels[:axis] + labels[axis + 1:]
            reg_dims = reg_dims[:axis] + reg_dims[axis + 1:]
        elif ins.kind == "ClassicalSend":
            if live_after[i + 1] == live_after[i]:
                continue
            step = None
        else:  # pragma: no cover - Instruction rejects unknown kinds
            raise ValueError(f"unknown instruction kind {ins.kind!r}")
        same_map = ins.kind == "LocalGate" or ins.kind in RESOURCE_KINDS  # no merge: see Plan
        steps.append((step, None if same_map else live_after[i + 1]))
    return Plan(circuit, upto, dims, peak, unmerged_branch_bound(circuit, upto, dims),
                tuple(steps), labels, reg_dims)


def enumerate_branches(circuit: DistCircuit, input_state: MixedRegister | None = None,
                       merge_equal: bool = False, upto: int | None = None,
                       plan: Plan | None = None) -> list[BranchResult]:
    """Run the circuit on ``input_state``, returning every measurement branch.

    ``input_state`` labels must equal the circuit's declared inputs in order
    (defaults to the all-zeros basis state). It may be a batch (one input per
    amplitude column): then each result's ``probability`` is per column and
    ``alive`` marks the columns the branch occurs for. ``upto`` executes only
    the first ``upto`` instructions, which exposes intermediate protocol states.
    ``plan`` is ``compile_plan(circuit, upto)``, compiled here when not given;
    a caller running several batches compiles it once.
    """
    if plan is None:
        plan = compile_plan(circuit, upto)
    elif plan.circuit is not circuit or plan.upto != upto:
        raise ValueError("the plan was compiled for another circuit or instruction prefix")
    if not merge_equal and plan.branch_bound > MAX_BRANCHES:
        raise ValueError(f"up to {plan.branch_bound} unmerged branches exceed the limit "
                         f"{MAX_BRANCHES}; merging equal branches avoids it")
    dims = plan.dims
    if input_state is None:
        input_state = MixedRegister.basis(
            circuit.inputs, tuple(dims[l] for l in circuit.inputs),
            (0,) * len(circuit.inputs))
    if tuple(input_state.labels) != tuple(circuit.inputs):
        raise ValueError(
            f"input labels {input_state.labels} do not match circuit inputs {circuit.inputs}")
    for label, d in zip(input_state.labels, input_state.dims):
        if dims.get(label, d) != d:
            raise ValueError(f"input {label!r} has dimension {d}, circuit expects {dims[label]}")

    amps = input_state.amps.reshape(input_state.amps.shape[0], -1)  # a single state: k = 1
    k = amps.shape[1]
    frontier = [_Branch(amps, np.ones(k), (), {}, 1, np.ones(k, dtype=bool))]
    pool = None  # the run's large buffers, dropped on return; none when every register is small
    if plan.peak * k * amps.itemsize >= backend.POOL_MIN_BYTES:
        pool = backend.BufferPool(foreign=amps)
    for step, live in plan.steps:
        if step is not None:
            frontier = step(frontier, pool)
        if merge_equal and live is not None and len(frontier) > 1:
            frontier = _merge(frontier, live)

    labels, out_dims = plan.labels, plan.out_dims
    if input_state.amps.ndim == 1:
        return [BranchResult(br.outcomes, float(br.prob[0]),
                             MixedRegister._wrap(out_dims, br.amps[:, 0], labels), br.weight)
                for br in frontier]
    return [BranchResult(br.outcomes, br.prob, MixedRegister._wrap(out_dims, br.amps, labels),
                         br.weight, br.alive)
            for br in frontier]
