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
none of its columns is alive. ``measure_enumerate`` reads the register twice:
one matrix-vector product and a short sum give every outcome's per-column
weight, and one scaled copy per kept outcome gives its branch. A single
input state is the k = 1 case of the same code.

Teleported-gate protocols reconverge: once corrections have been applied, all
branches hold the same state. ``merge_equal=True`` collapses branches whose
labels, dims, alive masks, still-referenced outcome symbols and whole
amplitude matrices agree (``allclose`` with ``atol=MERGE_ATOL``), keeping
enumeration polynomial for circuits with many teleported gates while the
reported ``weight`` preserves the underlying branch count. Candidates are
bucketed by the exactly-compared fields, and inside a bucket a fingerprint
``r @ amps`` (a fixed vector ``r``, ``||r||_1 = 1``) skips only pairs that
``allclose`` would reject: if every element differs by at most ``MERGE_ATOL``,
the fingerprints differ by at most ``MERGE_ATOL`` plus a rounding slack. The
merges, and the order of the kept branches, are those of a plain first-match
scan.

Every branch builds the same registers, so ``peak_register_dim`` finds the
largest register from the instruction list alone, and an over-cap circuit is
rejected before anything is simulated. Likewise, without merging, a circuit
whose measurements could fork more than ``MAX_BRANCHES`` branches
(``unmerged_branch_bound``) is rejected up front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .circuit import RESOURCE_KINDS, DistCircuit, Instruction
from .gates import gate_arity, gate_power, gate_unitary
from .statevec import (BranchResult, MixedRegister, apply_unitary, check_register_dim,
                       measure_enumerate, tensor)

MERGE_ATOL = 1e-12
MAX_BRANCHES = 2 ** 16


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


def peak_register_dim(circuit: DistCircuit, upto: int | None = None) -> int:
    """Largest register dimension any branch reaches in the first ``upto`` instructions.

    Computed from the instruction list alone: resources add subsystems and
    measurements remove them, the same way in every branch.
    """
    dims = infer_dims(circuit)
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


def unmerged_branch_bound(circuit: DistCircuit, upto: int | None = None) -> int:
    """Most branches an enumeration without merging can reach in the first ``upto`` instructions.

    The product of the measured subsystems' dimensions: one fork per outcome.
    """
    dims = infer_dims(circuit)
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


@dataclass
class _Branch:
    state: MixedRegister
    prob: np.ndarray  # per column; 0 where the column is dead
    outcomes: tuple[tuple[str, int], ...]
    values: dict[str, int]
    weight: int
    alive: np.ndarray


def _future_symbols(instructions) -> list[tuple[str, ...]]:
    """For each index, the outcome symbols any later condition still reads (sorted)."""
    out = [()] * (len(instructions) + 1)
    live: frozenset[str] = frozenset()
    for i in range(len(instructions) - 1, -1, -1):
        ins = instructions[i]
        if ins.condition is not None:
            live = live | frozenset(ins.condition.terms)
        out[i] = tuple(sorted(live))
    return out


@lru_cache(maxsize=64)
def _fingerprint_vector(n: int) -> tuple[np.ndarray, float]:
    """A fixed vector r with ||r||_1 = 1, and the prefilter bound for length n.

    Amplitude columns are unit vectors or zero, so computing ``r @ column``
    rounds by at most about n * eps; the bound allows that for both
    fingerprints of a pair on top of ``MERGE_ATOL * ||r||_1``.
    """
    r = np.random.default_rng(n).random(n)
    bound = MERGE_ATOL * (1 + 1e-6) + 8 * (n + 4) * np.finfo(float).eps
    return (r / r.sum()).astype(np.complex128), bound


def _merge(frontier: list[_Branch], live: tuple[str, ...]) -> list[_Branch]:
    """Merge each branch into the first earlier kept branch equal to it."""
    merged: list[_Branch] = []
    buckets: dict[tuple, list[list]] = {}  # exact key -> [[kept branch, fingerprint]]
    for br in frontier:
        key = (br.state.labels, br.state.dims, br.alive.tobytes(),
               tuple(map(br.values.get, live)))
        bucket = buckets.setdefault(key, [])
        fp = None
        for entry in bucket:
            kept = entry[0]
            if fp is None:
                r, bound = _fingerprint_vector(br.state.amps.shape[0])
                fp = r @ br.state.amps
            if entry[1] is None:
                entry[1] = r @ kept.state.amps
            # the second test is np.allclose(rtol=0, atol=MERGE_ATOL) on finite amplitudes
            if (abs(entry[1] - fp).max() <= bound
                    and abs(kept.state.amps - br.state.amps).max() <= MERGE_ATOL):
                kept.prob = kept.prob + br.prob
                kept.weight += br.weight
                break
        else:
            bucket.append([br, fp])
            merged.append(br)
    return merged


def enumerate_branches(circuit: DistCircuit, input_state: MixedRegister | None = None,
                       merge_equal: bool = False, upto: int | None = None,
                       ) -> list[BranchResult]:
    """Run the circuit on ``input_state``, returning every measurement branch.

    ``input_state`` labels must equal the circuit's declared inputs in order
    (defaults to the all-zeros basis state). It may be a batch (one input per
    amplitude column): then each result's ``probability`` is per column and
    ``alive`` marks the columns the branch occurs for. ``upto`` executes only
    the first ``upto`` instructions, which exposes intermediate protocol states.
    """
    dims = infer_dims(circuit)
    check_register_dim(peak_register_dim(circuit, upto))
    if not merge_equal and (bound := unmerged_branch_bound(circuit, upto)) > MAX_BRANCHES:
        raise ValueError(f"up to {bound} unmerged branches exceed the limit {MAX_BRANCHES}; "
                         "merging equal branches avoids it")
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

    instructions = circuit.instructions[:upto] if upto is not None else circuit.instructions
    live_after = _future_symbols(circuit.instructions)
    amps = input_state.amps.reshape(input_state.amps.shape[0], -1)  # a single state: k = 1
    start = MixedRegister._wrap(input_state.dims, amps, input_state.labels)
    k = amps.shape[1]
    frontier = [_Branch(start, np.ones(k), (), {}, 1, np.ones(k, dtype=bool))]

    for i, ins in enumerate(instructions):
        if ins.kind == "LocalGate":
            u = gate_unitary(ins.gate, ins.params)
            for br in frontier:
                br.state = apply_unitary(br.state, u, ins.targets)
        elif ins.kind in RESOURCE_KINDS:
            resource = _resource_state(ins)
            for br in frontier:
                br.state = tensor(br.state, resource)
        elif ins.kind == "Measure":
            target = ins.targets[0]
            symbol = ins.outcome or f"_m{i}"
            new_frontier: list[_Branch] = []
            for br in frontier:
                for sub in measure_enumerate(br.state, target):
                    outcome = sub.outcomes[0][1]
                    new_frontier.append(_Branch(
                        sub.state, br.prob * sub.probability,
                        br.outcomes + ((symbol, outcome),),
                        {**br.values, symbol: outcome}, br.weight,
                        br.alive & (sub.probability > 0)))
            frontier = new_frontier
        elif ins.kind == "CondGate":
            for br in frontier:
                value = ins.condition.evaluate(br.values)
                if value:
                    u = gate_power(ins.gate, ins.params, value)
                    br.state = apply_unitary(br.state, u, ins.targets)
        elif ins.kind == "ClassicalSend":
            pass  # free in simulation; audited by the resource tally
        else:  # pragma: no cover - Instruction rejects unknown kinds
            raise ValueError(f"unknown instruction kind {ins.kind!r}")
        if merge_equal and len(frontier) > 1:
            frontier = _merge(frontier, live_after[i + 1])

    if input_state.amps.ndim == 1:
        return [BranchResult(br.outcomes, float(br.prob[0]),
                             MixedRegister._wrap(br.state.dims, br.state.amps[:, 0],
                                                 br.state.labels), br.weight)
                for br in frontier]
    return [BranchResult(br.outcomes, br.prob, br.state, br.weight, br.alive)
            for br in frontier]
