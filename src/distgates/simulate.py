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
labels, dims, alive masks, merge keys and whole amplitude matrices agree
(``allclose`` with ``atol=MERGE_ATOL``), keeping enumeration polynomial for
circuits with many teleported gates while the reported ``weight`` preserves
the underlying branch count. Candidates are bucketed by the exactly-compared
fields, and each is compared with the kept branches of its bucket in order,
so the merges, and the order of the kept branches, are those of a plain
first-match scan.

A branch's merge key holds what the later conditions will read of the
outcomes so far: for each condition at a later index j, the sum, mod its
modulus, of its terms that are already measured and not measured again
before j (``_symbol_uses``; an unmeasured term reads 0 in every branch). This
is sound. A condition's value at j is that partial sum plus the terms
measured between now and j, modulo its modulus, and those outcomes are
forked the same way from equal states, so two branches with equal
amplitudes, alive masks and keys pair up outcome by outcome from here on:
each pair reads equal condition values, applies the same maps and stays
equal. So the merged branch, with the summed probability and weight, stands
for both. The key is what lets a GHZ fan-out reconverge early: each share is
measured in the X basis and one correction reads the parity of all the
outcomes, so branches merge on that parity as the outcomes come in, where a
key of every outcome read later would keep all 2^k of them apart until the
correction. The control share's outcome m leaves the key sooner still: the
builders emit the shifts X^m of all the remote shares as one run right after
m arrives (``qubit_protocols``), so after the last of them no condition reads
m, the branches forked on m hold equal states and merge, and the shares' own
gates and measurements run once instead of once per value of m. A circuit
that spreads those shifts out, one before each share's gates, gets the same
verdicts over wider frontiers.

A merge runs only after a step where branches can meet: a conditioned gate,
a measurement, or a ClassicalSend that changes the key (see ``Plan``; a
fused step merges once, after its last member that would, see below). A
LocalGate or a resource applies one map to every branch and leaves the key
as it was, and the merge before it has already compared those branches under
the same key. One caveat: the merge test is on the largest amplitude
difference, and a dense gate or a resource on d-dimensional subsystems can
shrink that by up to a factor sqrt(d) (a resource's amplitudes are
1/sqrt(d)). A pair just over ``MERGE_ATOL`` before such a step may therefore
be within it after, and then merges at the next conditioned gate or
measurement instead, where merging after every instruction would have merged
it at once.

Every branch builds the same registers: resources add subsystems and
measurements remove them, the same way in every branch. So ``peak_register_dim``
finds the largest register from the instruction list alone, and an over-cap
circuit is rejected before anything is simulated. Likewise, without merging, a
circuit whose measurements could fork more than ``MAX_BRANCHES`` branches
(``unmerged_branch_bound``) is rejected up front. The subsystem dimensions
are inferred once per circuit object and held by it (``circuit_dims``):
``infer_dims``, ``verify``'s input generators and ``compile_plan`` on one
circuit walk its instructions for them once, and ``infer_dims`` hands each
caller a copy. The same walk counts the resources that ``verify`` reports
(``resource_counts``) and collects the resources and measurements, over
which both bounds of the whole circuit are folded once the dimensions are
known (``_bounds``), and held beside them. A prefix (``upto``) folds its own
bounds from its instructions.

For the same reason the instruction list is compiled once into a ``Plan``
(``compile_plan``) before any branch runs. One forward walk follows the
register layout as ``peak_register_dim`` does, checks the rules that need the
circuit and reads the gadgets. An instruction has refused its own defects
when it was built (``circuit.Instruction``: a gate's name, target count and
distinct targets, a Measure's one target, a resource's parties and shares, a
CondGate's condition), and ``circuit_dims`` has matched each target's
dimension with the gate's arity. The walk refuses a condition term that no
earlier Measure names as its outcome (``_symbol_uses``, for a CondGate and a
ClassicalSend alike), a label that is not in the register where it is used
(``label_axis``) and a resource label already in it. Each target's axis is
its index in the register's label tuple. A gate gets its target axes and its
matrix, and a conditioned gate its axes and its powers, each resolved once
per value; a gate's kernel plan is looked up after the walk, and a power's
when its value first occurs. Gates and powers are the cached, read-only
``Unitary`` objects of ``gates``, so their kernel plans are cached by gate
object and layout (``_gate_plan``), without the content key of
``backend.kernel_plan``. A resource gets its state's amplitudes, read-only
and cached by dimension and party count, and the label-collision check, and
a measurement its target's axis and the sizes around it. A bad instruction
therefore raises ``ValueError`` before any kernel runs, and before any
gadget is built (see below). The branch loop, ``run_steps``, holds bare
amplitude matrices (``_Branch``: amplitudes, per-column probability and
alive mask, outcome record, symbol values, weight, support) and its steps
(module ``steps``) hand them straight to the kernels: each gate to
``backend.apply_matrix``, each measurement to ``statevec.measure_amps`` and
each resource to ``statevec.tensor_amps``, which are also the arithmetic of
``measure_enumerate`` and ``tensor``, minus their per-call label lookups and
checks. ``verify`` compiles one plan and shares it across its input chunks.

Gadgets. The teleported gates, teleportations and fan-outs are chains of
gate-teleportation gadgets (Gottesman & Chuang, Nature 402, 390 (1999);
Eisert et al., PRA 62, 052317 (2000)); a teleportation (Bennett et al., PRL
70, 1895 (1993)) is the simplest, the identity with its label renamed. Each
is contracted into one step when the plan is compiled. A gadget is a
resource instruction over labels A and every later instruction through its
measurements M, and then through the last CondGate that reads one of their
outcomes. A Measure joins the gadget when its label is in A, or is a data
label that an earlier op of the gadget touched; the gadget's measurements
are complete once their dimensions multiply to d_A. One backward pass
(``_symbol_uses``) finds every measurement's last reader, and the walk that
checks the instructions also reads each gadget as it goes (``_Read``), so
finding the gadgets is linear in the circuit. The gadget touches data
labels S_in and leaves S_out = (S_in + A) - M, of the same dimension d_S
(its measured dimensions multiply to d_A). A teleported gate or a fan-out
measures all of A, so S_out = S_in; a teleportation measures one share and
its data qubit s, so S_in = {s} and S_out is the share it keeps. A gadget
contracts when it holds no other resource, measures no data label it has
not touched, conditions only on outcomes it has measured, ends within
``upto``, touches some data labels, and its build (below) stays within
``BUILD_AMPLITUDES`` and finds every outcome record a unitary; one whose
S_out is not S_in contracts only while every branch is dense (before the
plan's first sparse resource, see below). Every gadget of the benchmark's
correct circuits contracts, the GHZ fan-outs, the d = 4 gadgets and
``teleport_all``'s teleportations included; a gadget whose build passes the
cap keeps its per-instruction steps (a GHZ(8) layer, whose unitary alone
has 2^16 entries, or a d_S = 64 qudit gadget that a dropped correction
keeps from merging).

Record r of a gadget, the outcome of each of its measurements, has a Kraus
operator K_r from S_in to S_out: on a normalized input column psi the
per-instruction steps end with K_r psi, renormalized, of probability
||K_r psi||^2. The gadget contracts only when all d_A records survive and
each has K_r^dagger K_r = p_r I (within ``UNITARY_TOL``) and
p_r >= ``PRUNE_TOL``. Those steps then compute conditional probabilities of
at least p_r (each is the summed p of the records that share that prefix of
r), so they prune nothing, and end with K_r psi / sqrt(p_r) = U_r psi, U_r
unitary from S_in to S_out, of probability p_r. So the contracted step forks
every branch into the gadget's records in the per-instruction order
(lexicographic in measurement order), with the same outcome records and
symbol values, the probability times p_r and the alive mask unchanged (a
dead column, zero amplitudes, stays dead), and applies each U_r to the data
axes with ``backend.apply_matrix``: the register never grows by A. Entries
of U_r within ``MERGE_ATOL / d_S`` of zero are rounding noise and are set to
zero, so that the kernel sees a diagonal or monomial U_r as such.

When S_out is not S_in, the register after the step must be the one the
per-instruction steps leave, since the later steps' axes and ``Plan.labels``
read it: the labels before the resource, without the measured data labels,
then the surviving shares. The kernel writes U_r's output index where the
input index sat, and a fixed gather of the register rows
(``steps._relabel``) moves it there. For a diagonal or monomial U_r the
gather is folded into its kernel plan (``steps._group_plan``), so a
contracted teleportation is one gather and can fuse with the steps around
it; a dense U_r is followed by the gather. This is sound: a measured data
label has left the register, so the walk refuses any later instruction
that reads it (``label_axis``), exactly as it does for the explicit steps,
and every group maps S_in to S_out with d_in = d_out, so the step keeps the
register's size and its rows are those of the per-instruction steps.

The step a merged run runs forks into the gadget's merge groups instead: one
branch per group, of the group's record count as weight and the sum of its
records' probabilities, which keeps the group's first record and applies
its unitary; the usual merge follows the step. The build (``_gadget``)
finds the groups without ever holding the d_A records. It runs the
gadget's own steps, merging as a run does, on the identity batch over S_in,
which it holds as one column over an extra reference axis of d_S levels,
the vector sum_i |i>|i> / sqrt(d_S): column i of the batch sits at
reference value i, so the vector's nonzero rows are the batch's, and they
are a support from the start (see below). The merge key reads the partial
sums of the gadget's own later conditions and the value of every outcome
that the merge key after the gadget reads, so the groups are at least as
fine as that key. Each branch left at the end is one group, whose matrix
is read between the reference axis and the labels S_out left. The build
refuses, and the gadget stays explicit, when a measurement leaves a column
dead or the columns' probabilities unequal, when the groups' weights do not
sum to d_A, or when a group is no unitary; ``_gadget`` bounds how far the
merges inside one build may move a state. The merged build of GHZ(7), the
7-qubit GMS fan-out's widest gadget, holds at most 512 amplitudes where the
d_A = 128 records held 128 matrices of 128 x 128.

Builds are cached by a canonical key (``_gadget``): data and resource
labels are numbered in order of use, outcome symbols by their measurement,
gates are their resolved unitaries, and ClassicalSends are left out, so the
60 teleported CZs of a 12-qubit pairwise GCZ share one build. A build keeps
its groups' unitaries and their kernel plans per register layout itself,
outside the backend's LRU, and runs with a row cache of its own
(``steps._private_rows``), since no later run meets its supports. A second
cache (``_contract``) maps a gadget in its own labels and symbols to its
build, so that compiling a circuit again, or another circuit with the same
gadgets, repeats no canonicalization. Each cache holds 1024 entries; the
35 suite circuits and their 274 dropped-correction variants together need
295 and 78, so nothing is built twice.

Fused runs. A run of two or more plan steps that each apply one diagonal or
monomial map to every branch runs as one step (``_fuse``,
``steps._fused_step``): a LocalGate whose gate does not spread, and a
contracted gadget of one merge group whose unitary is not dense; steps that
run nothing (a ClassicalSend's) may stand between them. Each member's kernel
plan (``_gate_plan``, ``steps._group_plan``) is a gather of register rows
and a phase per row, so the run is one such plan over the whole register,
composed member by member as ``src[s]`` and ``phase[s] * ph``
(``steps._composed``), which ``backend.apply_matrix`` runs as one multiply,
or one gather and a multiply. No dense matrix or ``Unitary`` is built: a
pairwise GCZ's 66 CZ steps are one phase multiply. A GMS circuit on n
qubits, of any strategy, runs as 2n + 1 steps: the n dense Hadamards of its
shared frame on each side, and its whole ZZ body, every contracted fan-out
and RZ, as one fused step between them (``qubit_protocols``). The members'
classical parts are folded when the plan is compiled, since every branch
takes the same ones: one outcome record and set of symbol values, the
product of the weights, and the probabilities, which multiply each branch's
in member order, so that they are the bits the members compute one at a
time. Only the amplitudes round differently, where the phases do not compose
exactly.

The fused step carries the merge key spec of its last member that has one,
so with merging it merges once, at its end. This loses no merge. Take two
branches entering the run and any point i inside it. Every member applies
one monomial map to both, whose entries have modulus 1 (up to rounding), so
it moves their amplitude differences to other rows and keeps the largest
one: the two are as far apart at the end as at i. Every member also gives
both the same outcome values. A condition that the key at the end reads lies
after i, so its entry at the end is its entry at i plus the terms measured
between i and the end, which both branches share: equal keys at i are equal
keys at the end. So two branches that a merge at i would join are joined at
the end, whether the merge at i follows a gadget or a ClassicalSend that
changes the key, and the merge at the end is the last member's, after maps
both take. Runs are fused only while every branch is dense (before the
plan's first sparse resource): on a support each member runs its own row
plan, and supports are left out. The composed plan is kept in
the row cache (``steps._ROWS``) under the members' plan objects and the
layout, so that compiling the circuit again, or another circuit with the
same steps, composes nothing; the entry holds those plans, so their ids stay
their own. ``Plan.fused`` holds the instruction range of each fused step.

Unmerged runs. A contracted gadget and a fused step stand for their
instructions only where branches merge. Without merging,
``enumerate_branches`` runs ``Plan.explicit`` instead: the step constructor
and arguments of each instruction, in order, which the compile walk lists
once. A gadget it reads (``_Read``) is a range of that list, which stays in
the merged plan, run step by step, when the gadget does not contract. An
unmerged run builds the steps of the list, skipping the entries of
ClassicalSends, which build nothing, and runs them with no merge, so every
outcome record is a branch of its own and ``MAX_BRANCHES`` and
``unmerged_branch_bound`` hold. These runs build the per-instruction
registers, up to the explicit peak: ``simulated_peak`` and ``row_bound``
describe merged runs.

Row-sparse branches. A GHZ state over n parties of dimension d multiplies
the register by d^n but has only d nonzero amplitudes, so a branch that
holds it has at most d nonzero rows per row before it (the state-sparsity
method of Jaques & Haner, arXiv:2105.01533). A resource whose amplitudes
are at most a quarter nonzero (``_sparse``: every GHZ state of three or more
parties and every d >= 4 pair, but not a qubit Bell pair) therefore gives
each branch a support (``steps._Support``): the sorted register rows it
holds, with ``amps`` one row per support row. A dense branch has none
(``rows`` is None) and runs exactly the dense kernels above: each step
picks the kernel per branch, so a plan with no sparse resource does the
work it did before supports. The rows outside a support are exact zeros
under every kernel, so the support loses nothing:

- a diagonal gate multiplies each row by a phase and a monomial one moves
  each row to one row, so a zero row stays zero;
- a dense gate writes each row of a base (the row with the target digits
  cleared) from the rows of that base alone, so only the bases the support
  holds can become nonzero, and the support grows to all their rows
  (``backend.row_plan``), with explicit zeros where the sums vanish;
- a measurement sums squares, to which a zero row adds nothing, and keeps
  each outcome's rows with that digit removed (``statevec.split_rows``);
- a resource on a support multiplies it by the resource's nonzero rows.

The support a step makes of a support, and its row plan, depend only on
the two and the step, so they are built once and kept in a least-recently
used cache of at most ``steps.ROW_CACHE_BYTES`` of arrays (``steps._ROWS``);
a run's first support comes from there too (``steps._root``), so later
plans that take the same steps reuse every row plan. A step's cost on a
support is then one kernel call, as on a dense branch. A branch
whose support comes to hold every row of its register goes back to dense
(``_support``): its rows are then already in register order.
``_merge`` compares two branches on the same support directly, and on
different supports on the union of their rows, a row one of them lacks
reading 0 (``_gap``): exactly the dense compare. ``enumerate_branches``
scatters each support into a dense ``BranchResult``.

``Plan.row_bound`` bounds the rows any branch of a merged run holds at any
step. The walk that finds the gadgets folds it in step order, from the input
register: a sparse resource multiplies it by its nonzero amplitudes (and a
dense one by its whole size while a branch may be dense), a dense gate, or a
gadget with a dense unitary, by its dimension m, up to the register, and a
measurement keeps it, up to the register after it. A contracted gadget
grows no register, so its resource enters neither the bound nor
``simulated_peak``: only a sparse resource of a gadget that stays explicit
gives a merged run's branches supports. A plan with no such resource keeps
every branch dense, and its bound is ``simulated_peak``, which is the input
register when every gadget contracts.

``peak_register_dim`` and the cap check keep the explicit peak, the largest
register of the per-instruction steps, so contraction and supports accept
and reject the same circuits; ``MAX_BRANCHES`` likewise counts branches
whatever they hold. ``Plan.simulated_peak`` is the largest register a step
of the plan actually builds; ``Plan.row_bound``, at most that, sizes
``verify``'s chunks.

Every kernel a step calls returns a new array and never writes its input
(see ``backend``), so the caller's input batch, a branch that a gadget step
forks into several, cached resource states, gate matrices, gadget unitaries
and row plans are only read.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Callable, NamedTuple

import numpy as np

from . import backend
from .circuit import RESOURCE_KINDS, DistCircuit, Instruction, resource_key
from .gates import gate_arity, gate_power, gate_unitary
from .statevec import (PRUNE_TOL, UNITARY_TOL, BranchResult, MixedRegister, check_register_dim,
                       label_axis)
from .steps import (_Branch, _cond_step, _fused_step, _gadget_step, _gap, _gate_plan, _gate_step,
                    _group_plan, _measure_step, _private_rows, _resource_amps, _resource_nonzero,
                    _resource_step, _sparse, _spreads, _Support)

MERGE_ATOL = 1e-12
MAX_BRANCHES = 2 ** 16
MAX_INPUT_AMPLITUDES = 2 ** 24  # random inputs times their dimension; 256 MiB of amplitudes
MAX_SWEEP_QUBITS = 2 ** 20  # the summed n of the rows of an `estimate --sweep`; a row costs O(n)
MAX_COMPILE_PAIRS = 2 ** 15  # qubit pairs of a `compile` shape (n <= 256); a build costs O(pairs)
BUILD_AMPLITUDES = 2 ** 15  # a gadget build holds at most this many, its unitaries too (_gadget)


def circuit_dims(circuit: DistCircuit) -> dict[str, int]:
    """``infer_dims`` without the copy: walked once per circuit object and held by it.

    A circuit is frozen, so its dims never change; callers only read the
    dict. A circuit whose dims conflict holds nothing and raises on every call.
    The same walk counts the resources (``resource_counts``) and collects the
    resources and measurements, over which the whole circuit's bounds are
    folded once its dims are known (``_bounds``).
    """
    held = vars(circuit)
    if "_dims" in held:
        return held["_dims"]
    dims: dict[str, int] = {}
    resources: dict[tuple[int, int], int] = {}
    moves = []  # the resources and measurements, in order
    for ins in circuit.instructions:
        kind = ins.kind
        if kind == "LocalGate" or kind == "CondGate":
            pairs = zip(ins.targets, gate_arity(ins.gate))
        elif kind in RESOURCE_KINDS:
            pairs = zip(ins.targets, (ins.dim or 2,) * len(ins.targets))
            key = resource_key(ins)
            resources[key] = resources.get(key, 0) + 1
            moves.append(ins)
        else:
            if kind == "Measure":
                moves.append(ins)
            continue
        for label, d in pairs:
            if dims.setdefault(label, d) != d:
                raise ValueError(
                    f"subsystem {label!r} used with dimensions {dims[label]} and {d}")
    for label in circuit.inputs:
        dims.setdefault(label, 2)
    held["_resources"] = resources
    held["_bounds"] = _bounds(moves, circuit.inputs, dims)
    held["_dims"] = dims
    return dims


def resource_counts(circuit: DistCircuit) -> dict[tuple[int, int], int]:
    """The circuit's resources by ``resource_key``, the counts of ``tally(circuit)``, from
    the walk of ``circuit_dims``; callers only read the dict."""
    circuit_dims(circuit)
    return vars(circuit)["_resources"]


def infer_dims(circuit: DistCircuit) -> dict[str, int]:
    """Subsystem dimensions implied by the circuit's gates and resources.

    The circuit is walked once (``circuit_dims``); each call returns a new dict.
    """
    return dict(circuit_dims(circuit))


def _bounds(instructions, inputs: tuple[str, ...], dims: dict[str, int]) -> tuple[int, int]:
    """``(peak_register_dim, unmerged_branch_bound)`` after ``instructions``, from one walk; only
    resources and measurements count."""
    present = {label: dims[label] for label in inputs}
    size = peak = math.prod(present.values())
    branches = 1
    for ins in instructions:
        kind = ins.kind
        if kind == "Measure":
            label = ins.targets[0]
            branches *= dims.get(label, 1)
            if label in present:
                size //= present.pop(label)
        elif kind in RESOURCE_KINDS:
            for label in ins.targets:
                present[label] = dims[label]
                size *= dims[label]
            peak = max(peak, size)
    return peak, branches


def _bounds_of(circuit: DistCircuit, upto: int | None):
    """``_bounds`` of the first ``upto`` instructions: the whole circuit's from ``circuit_dims``,
    a prefix's from a walk of its own."""
    dims = circuit_dims(circuit)
    if upto is None:
        return vars(circuit)["_bounds"]
    return _bounds(circuit.instructions[:upto], circuit.inputs, dims)


def peak_register_dim(circuit: DistCircuit, upto: int | None = None) -> int:
    """Largest register dimension any branch reaches in the first ``upto`` instructions.

    Computed from the instruction list alone: resources add subsystems and
    measurements remove them, the same way in every branch.
    """
    return _bounds_of(circuit, upto)[0]


def unmerged_branch_bound(circuit: DistCircuit, upto: int | None = None) -> int:
    """Most branches an enumeration without merging can reach in the first ``upto`` instructions.

    The product of the measured subsystems' dimensions: one fork per outcome.
    """
    return _bounds_of(circuit, upto)[1]


class _Gadget(NamedTuple):
    """A gadget's merge groups and their unitaries, built once per canonical key.

    ``groups`` holds ``(outcomes, u, count, p)`` per group, in the order of
    their first records: the outcome of each measurement of the group's first
    record, in measurement order, the unitary from S_in to S_out that every
    record of the group applies, how many records the group stands for and
    their summed probability. ``plans`` holds the kernel plan of each group's
    unitary per register layout, filled as layouts occur
    (``steps._group_plan``). ``dense`` is whether some unitary is neither
    diagonal nor monomial, so that it can spread a sparse branch over more
    rows. ``out`` is None when S_out is S_in, the gadget measuring only its
    resource; else it holds ``(id, dim)`` of each label of S_out in the order
    of the unitaries' rows, in the key's label ids (see ``_contract``): the
    surviving data labels in order, then the surviving shares.
    """

    groups: tuple[tuple[tuple[int, ...], np.ndarray, int, float], ...]
    plans: dict
    dense: bool
    out: tuple[tuple[int, int], ...] | None = None


def _build_keys(ops: tuple, live: tuple[int, ...], d: int) -> list[tuple | None]:
    """The merge key spec after each of a gadget build's ``ops`` (see ``Plan``), None after a gate.

    It holds, for each later conditioned gate of the gadget, the sum of its
    terms measured so far mod its modulus, and ``((s,), d)``, the outcome
    itself, for each symbol ``s`` in ``live``.
    """
    specs: list[tuple | None] = []
    measured: set[int] = set()
    for j, (kind, *op) in enumerate(ops):
        if kind == "G":
            specs.append(None)
            continue
        if kind == "M":
            measured.add(op[1])
        entries = dict.fromkeys(((s,), d) for s in live)
        for later in ops[j + 1:]:
            if later[0] == "C":
                terms = tuple([t for t in later[3] if t in measured])
                if terms:
                    entries[terms, later[4]] = None
        specs.append(tuple(entries))
    return specs


def _flat(br: _Branch, d_s: int) -> bool:
    """Whether every column of the identity batch that a build's branch holds (see ``_gadget``)
    is alive, with one probability for all of them: the branch's probability times d_S times
    the weight of each value of the reference axis, the first one."""
    weights = br.amps.real[:, 0] ** 2 + br.amps.imag[:, 0] ** 2
    if br.rows is None:
        per = weights.reshape(d_s, -1).sum(axis=1)
    else:
        per = np.bincount(br.rows.rows // (br.rows.size // d_s), weights, d_s)
    probs = br.prob[0] * d_s * per
    return probs.min() >= PRUNE_TOL and probs.max() - probs.min() <= UNITARY_TOL


@lru_cache(maxsize=1024)
def _gadget(key: tuple) -> _Gadget | None:
    """Build the gadget ``key`` describes (see ``_contract``), or None when it does not contract.

    Runs the gadget's ops as the plan's own steps, with merging and owning no
    array, on the identity batch over the data labels S_in held as one column:
    the vector sum_i |i>|i> / sqrt(d_S) over a reference axis of d_S levels,
    which no step touches, and S_in. Its d_S nonzero rows are
    a support, and so are the batch's nonzero rows after every step: the build
    holds only those amplitudes (see the module docstring). A branch of
    probability p holds K e_i / sqrt(d_S p) at reference value i, for the
    Kraus operator K from S_in to the labels left of S_in and the resource
    after the outcomes so far: column i of the batch, of probability
    P_i = ||K e_i||^2, scaled to norm sqrt(P_i / (d_S p)). At the end the
    labels left are S_out, of dimension d_S too (the measured labels'
    dimensions multiply to d_A), and each group's d_S x d_S matrix is read
    between the reference axis and them. Every surviving branch is one group,
    which stands for ``weight`` records; it keeps its first record's outcomes
    and takes U = K / sqrt(p) of its summed probability p.

    - *Column-constant probabilities.* After every measurement, and so at
      every merge and at the end (a gate keeps each column's norm), each
      branch must have every column alive and one probability for all of
      them (``_flat``: every P_i at least ``PRUNE_TOL`` and all within
      ``UNITARY_TOL``); the build refuses otherwise. The check refuses no
      gadget that contracts: when every record's K_r^dagger K_r is p_r I, the
      records below a branch sum to its own K^dagger K, which is therefore
      (sum p_r) I. It refuses early what the test at the end would refuse,
      and it ties the vector to the batch: with every P_i equal to p, the
      vector at reference value i is column i renormalized, over sqrt(d_S).
      Two records with complementary column weights, whose renormalized
      columns agree, therefore never merge here: their vectors differ, where
      a batch of separately renormalized columns would merge them into a
      branch that passes the test at the end.
    - *Merge tolerance.* Branches merge within ``MERGE_ATOL / d_S^1.5``, which
      is ``MERGE_ATOL / d_S`` on each renormalized column K e_i / sqrt(P_i),
      under a key (``_build_keys``) at least as fine as the plan's key there.
      So on any normalized input, whose coefficients sum to at most sqrt(d_S)
      in modulus, the two states differ by at most ``MERGE_ATOL / sqrt(d_S)``
      in each amplitude: the run's first-match merge, at the same point of the
      per-instruction steps, would merge them as well. Merges compound
      additively and no more. A merge at a step where a branch holds at most
      H amplitudes moves each merged branch by at most sqrt(H) ``MERGE_ATOL``
      / d_S in 2-norm on any normalized input, times the square root of its
      probability; those probabilities sum to at most 1, and the later steps
      (unitaries, projections) never lengthen a difference summed over the
      records it reaches. So on any normalized input the contracted gadget's
      outcome states, weighted by the square roots of their probabilities,
      lie within ``MERGE_ATOL`` sqrt(``BUILD_AMPLITUDES``) / d_S of the exact
      ones per merge step of the build.
    - *Pruned records.* The groups' weights must sum to d_A, the number of
      records; a record pruned on every column is missing from them.

    It contracts when, further, every group's K^dagger K is p I within
    ``UNITARY_TOL`` with p >= ``PRUNE_TOL``. A build aborts, and its gadget
    stays explicit, before a step that could take its frontier past
    ``BUILD_AMPLITUDES`` amplitudes (a resource multiplies them by its
    nonzero amplitudes, a gate that is neither diagonal nor monomial by its
    dimension), or when its groups' d_S x d_S unitaries, which the gadget
    keeps, would hold more.
    """
    s_dims, d, n, ops, live = key
    d_s = math.prod(s_dims)
    # label ids, as in the key; "R" is the reference axis
    register = ["R"] + list(range(len(s_dims))) + [-1 - k for k in range(n)]
    dims = (d_s,) + s_dims + (d,) * n
    # (step, merge key spec, the most it multiplies the frontier's amplitudes by, whether it
    # measures: a gate keeps each column's norm)
    steps = [(_resource_step(_resource_amps(d, n), d, n, d_s * d_s), None,
              _resource_nonzero(d, n)[0].size, False)]
    for (kind, *op), spec in zip(ops, _build_keys(ops, live, d)):
        if kind == "M":
            share, symbol = op
            axis = register.index(share)
            steps.append((_measure_step(dims, axis, symbol), spec, 1, True))
            register.pop(axis)
            dims = dims[:axis] + dims[axis + 1:]
            continue
        axes = tuple(register.index(label) for label in op[0])
        gates = (op[1],) if kind == "G" else op[1]
        grows = max([gate.dim if _spreads(gate) else 1 for gate in gates])
        if kind == "G":
            steps.append((_gate_step(dims, axes, op[1]), spec, grows, False))
        else:  # "C", a conditioned gate with its powers from 1 on
            _, powers, terms, mod = op
            steps.append((_cond_step(dims, axes, terms, mod, powers), spec, grows, False))
    atol = MERGE_ATOL / d_s  # a column's amplitudes then move by at most MERGE_ATOL
    start = np.full((d_s, 1), 1 / math.sqrt(d_s), np.complex128)
    frontier = [_Branch(start, np.ones(1), (), {}, 1, np.ones(1, bool),
                        _Support(np.arange(d_s) * (d_s + 1), d_s * d_s))]
    held = d_s
    with _private_rows():
        for step, spec, grows, measures in steps:
            if held * grows > BUILD_AMPLITUDES:
                return None
            frontier = step(frontier)
            if measures and not all([_flat(br, d_s) for br in frontier]):
                return None
            if spec is not None and len(frontier) > 1:
                frontier = _merge(frontier, spec, atol / math.sqrt(d_s))
            held = sum([br.amps.shape[0] for br in frontier])
    # the groups' unitaries count against the cap too: the gadget holds them
    if len(frontier) * d_s * d_s > BUILD_AMPLITUDES:
        return None
    if sum([br.weight for br in frontier]) != d ** n:  # a record pruned on every column
        return None
    eye = np.eye(d_s)
    out = tuple([(label, d if label < 0 else s_dims[label]) for label in register[1:]])
    groups = []
    for br in frontier:
        psi = br.amps[:, 0]
        if br.rows is not None:
            psi = np.zeros(d_s * d_s, np.complex128)
            psi[br.rows.rows] = br.amps[:, 0]
        p = float(br.prob[0])
        u = np.ascontiguousarray(psi.reshape(d_s, d_s).T) * math.sqrt(d_s)  # K / sqrt(p)
        gram = np.empty((1, d_s, d_s), np.complex128)  # u^dagger u, without OpenBLAS's threads
        backend._matmul_blocks(u.conj().T, u[None], gram)
        if not (p >= PRUNE_TOL and p * abs(gram[0] - eye).max() <= UNITARY_TOL):
            return None
        u[abs(u) <= atol] = 0  # rounding noise, which would make the kernel dense
        u.flags.writeable = False  # shared by every plan of this key
        groups.append((tuple([outcome for _, outcome in br.outcomes]), u, br.weight, p))
    dense = any(backend.spreads(u) for _, u, _, _ in groups)
    return _Gadget(tuple(groups), {}, dense,
                   None if out == tuple(zip(range(len(s_dims)), s_dims)) else out)


class Plan(NamedTuple):
    """A circuit's first ``upto`` instructions resolved once for every branch.

    ``steps`` pairs each step of a merged run, a function from frontier to
    frontier, with the merge key spec after it, or with None when no merge
    follows the step; ``run_steps`` runs them. A spec is a tuple of
    ``(terms, mod)`` entries, one for each distinct partial sum that a later
    condition will read (see the module docstring): the sum of the terms'
    values mod ``mod``. Branches can only meet after a step that treats them
    differently, or after which the key reads less of them:

    - a contracted gadget, a CondGate or a Measure is followed by a merge, and
      so is a fused step that stands for one, or for a ClassicalSend that
      gets a merge;
    - a LocalGate or a resource applies one map to every branch and leaves
      the key as it was, so the merge after it would find nothing the merge
      before it missed, and it gets None (but see the caveat in the module
      docstring);
    - a ClassicalSend is free in simulation (the resource tally audits it),
      so its step is None. It gets no pair at all when its spec is that of
      the instruction before it: the merge after it would compare the same
      frontier under the same keys as the merge before it, and so merge
      nothing.

    ``explicit`` holds, per instruction in order, the constructor and
    arguments of its own step (``()`` for a ClassicalSend, which runs
    nothing, and no entry for one that gets no pair), its merge key spec as
    above, and its index. An unmerged run builds and runs these steps, and a
    merged run those of ``steps``, which are built from the same entries
    wherever no gadget contracts and no run fuses (see the module
    docstring). ``gadgets`` holds the first and last instruction index of
    each contracted gadget, in order: its one step stands for the steps of
    all of those instructions (see the module docstring for the rule, the
    proof, the build, the cap and the cache).
    ``fused`` holds the first and last instruction index of each fused step,
    in order: its one step stands for the steps of every instruction in that
    range and carries the merge of its last member that has one (see the
    module docstring for the rule, the merge proof and the cache).
    ``peak`` is the explicit peak register (``peak_register_dim``), which the
    cap check uses; ``simulated_peak`` is the largest register a step of a
    merged run builds, at most ``peak``; ``row_bound`` is the most rows a
    branch of a merged run holds after any step, at most ``simulated_peak``
    (see the module docstring). ``labels`` and ``out_dims`` describe the
    register after the last step.
    """

    circuit: DistCircuit
    upto: int | None
    dims: dict[str, int]
    peak: int
    simulated_peak: int
    row_bound: int
    branch_bound: int
    steps: tuple[tuple[Callable | None, tuple | None], ...]
    explicit: tuple[tuple[tuple, tuple | None, int], ...]
    gadgets: tuple[tuple[int, int], ...]
    fused: tuple[tuple[int, int], ...]
    labels: tuple[str, ...]
    out_dims: tuple[int, ...]


def _symbol_uses(instructions) -> tuple[list[tuple], dict[int, int], dict[int, str]]:
    """``(keys, readers, unmeasured)``, from one backward pass.

    ``keys[i]`` is the merge key spec before instruction i (see ``Plan``): for
    each condition at index i or later, its terms that are not measured again
    before it, with its modulus. A Measure removes its symbol from the
    conditions after it that still hold it, and a condition adds an entry.
    Equal entries appear once, and a spec is rebuilt only where its entries
    change. ``readers`` maps each Measure index to the last CondGate that
    reads its outcome before the symbol is measured again. ``unmeasured`` maps
    each condition that reads a symbol no earlier Measure names as its outcome
    to the first such symbol, which ``compile_plan`` refuses. Only a CondGate
    or a ClassicalSend has a condition (see ``Instruction``); a ClassicalSend's
    is never evaluated, but its symbols stay in the key until it has run. A
    Measure without an outcome records ``_m<i>``, which no condition may read.
    """
    keys: list[tuple] = [()] * (len(instructions) + 1)
    readers: dict[int, int] = {}
    rest: dict[int, tuple] = {}  # condition -> its entry, (its terms left, its modulus)
    holders: dict[str, list[int]] = {}  # symbol -> the conditions in rest that hold it, last first
    entries: dict[tuple, int] = {}  # entry -> how many conditions in rest have it
    spec: tuple | None = ()  # None once the entries have changed
    for i in range(len(instructions) - 1, -1, -1):
        ins = instructions[i]
        if ins.kind == "Measure" and ins.outcome:  # an unnamed outcome is read by no condition
            symbol = ins.outcome
            reader = None
            for j in holders.pop(symbol, ()):
                if reader is None and instructions[j].kind == "CondGate":
                    reader = readers[i] = j
                old = rest.pop(j)
                count = entries.pop(old)
                if count > 1:
                    entries[old] = count - 1
                else:
                    spec = None
                if len(old[0]) > 1:  # else the condition has no term left
                    terms = tuple([t for t in old[0] if t != symbol])
                    if terms:
                        entry = rest[j] = terms, old[1]
                        count = entries.get(entry, 0)
                        entries[entry] = count + 1
                        if not count:
                            spec = None
        elif (condition := ins.condition) is not None and condition.terms:
            terms = condition.terms
            if len(terms) == 1:
                holders.setdefault(terms[0], []).append(i)
            else:
                for symbol in set(terms):
                    holders.setdefault(symbol, []).append(i)
            entry = rest[i] = terms, condition.mod
            count = entries.get(entry, 0)
            entries[entry] = count + 1
            if not count:
                spec = None
        if spec is None:
            spec = tuple(entries)
        keys[i] = spec
    return keys, readers, {j: entry[0][0] for j, entry in rest.items()}


def _merge(frontier: list[_Branch], spec: tuple, atol: float = MERGE_ATOL) -> list[_Branch]:
    """Merge each branch into the first earlier kept branch equal to it (see the module docstring).

    ``spec`` is the step's merge key spec (see ``Plan``); equal means within
    ``atol`` in every amplitude, which a gadget build narrows (``_gadget``).
    Branches on different supports are compared on the union of their rows
    (``_gap``).
    """
    merged: list[_Branch] = []
    buckets: dict[tuple, list[_Branch]] = {}  # exact key -> kept branches
    for br in frontier:
        # every branch has the plan's labels and dims, so they are left out of the key;
        # a term no branch has measured yet reads 0 in every branch
        get = br.values.get
        key = (br.alive.tobytes(),
               tuple([sum([get(t, 0) for t in terms]) % mod for terms, mod in spec]))
        bucket = buckets.setdefault(key, [])
        for kept in bucket:
            # np.allclose(rtol=0, atol=atol) on finite amplitudes
            if kept.rows is not br.rows:
                far = _gap(kept, br)
            else:
                far = abs(kept.amps - br.amps).max()
            if far <= atol:
                kept.prob = kept.prob + br.prob
                kept.weight += br.weight
                break
        else:
            bucket.append(br)
            merged.append(br)
    return merged


class _Read(NamedTuple):
    """A gadget as ``compile_plan``'s walk has read it (see the module docstring).

    It opens at ``resource``, instruction ``start``, over labels A. A Measure
    joins it when its label is in A or a data label that an earlier op of the
    gadget touched; it closes at ``end``, once the dimensions of its measured
    labels M multiply to d_A and the last CondGate that reads one of its
    outcomes has been read. The labels it leaves are S_out = (S_in + A) - M.
    ``labels`` and ``dims`` are the register before the resource, ``measured``
    the gadget's outcome symbols, ``ops`` its operations in its own labels and
    symbols, for ``_contract``, and ``first`` and ``stop`` the range of
    ``Plan.explicit`` that its instructions' steps fill, which the plan runs
    step by step unless the gadget contracts.
    """

    start: int
    end: int
    resource: Instruction
    labels: tuple[str, ...]
    dims: tuple[int, ...]
    measured: set
    ops: list
    first: int
    stop: int


@lru_cache(maxsize=1024)
def _contract(shares: tuple[str, ...], d: int, ops: tuple, live: tuple[str, ...]):
    """``(gadget, data labels, outcome symbols)`` of a gadget, or None when it does not contract.

    ``shares`` are the resource's labels and ``d`` their dimension; ``ops``
    are the gadget's operations (``_Read``) and ``live`` its outcome
    symbols that the merge key after it reads. None when the gadget touches
    no data label or ``_gadget`` refuses to contract it.

    The build's key is canonical: data labels are numbered 0, 1, ... in order
    of first use and the resource's labels -1, -2, ...; each measurement's
    label and symbol are that number and its position among the measurements,
    so the key records which labels survive; gates are their resolved
    unitaries (a conditioned gate's powers from 1 on). ClassicalSends are left
    out. Gadgets that differ only in labels and symbols therefore share one
    build, and its ``out`` holds the survivors in these numbers.
    """
    numbers = {label: -1 - k for k, label in enumerate(shares)}
    data: list[str] = []
    s_dims: list[int] = []
    symbols: list[str] = []  # of each measurement, in order
    position: dict[str, int] = {}  # symbol -> its latest measurement
    canonical = []
    for kind, targets, *rest in ops:
        if kind == "M":
            position[rest[0]] = len(symbols)
            canonical.append(("M", numbers[targets], len(symbols)))
            symbols.append(rest[0])
            continue
        gate = rest[0][0] if kind == "C" else rest[0]
        for label, dim in zip(targets, gate.arity):
            if label not in numbers:
                numbers[label] = len(data)
                data.append(label)
                s_dims.append(dim)
        ids = tuple(numbers[label] for label in targets)
        if kind == "G":
            canonical.append(("G", ids, rest[0]))
        else:
            canonical.append(("C", ids, rest[0], tuple(position[t] for t in rest[1]), rest[2]))
    if not data:
        return None
    kept = tuple(sorted(position[s] for s in live))
    gadget = _gadget((tuple(s_dims), d, len(shares), tuple(canonical), kept))
    return gadget and (gadget, tuple(data), tuple(symbols))


def _bounded(make: tuple, bound: int | None, size: int) -> tuple[int | None, int]:
    """``(bound, size)`` after the step ``make`` describes: the most rows a branch holds (None
    while every branch is dense) and the register.

    While every branch is dense, only a resource is read, and the register
    before it is its own: a dense one grows the register, and a sparse one
    starts the bound at the register before it. Then a resource multiplies
    the bound by its nonzero amplitudes, or by all of them when a dense
    resource meets a branch that may be dense (the bound is the whole
    register); a gate that is neither diagonal nor monomial multiplies it by
    its dimension m, up to the register; a measurement keeps it, up to the
    register after it.
    """
    step = make[0]
    if step is _resource_step:
        amps, d, n, before = make[1:]
        if bound is None:
            if not _sparse(d, n):
                return None, before * amps.size
            bound = size = before
        bound *= _resource_nonzero(d, n)[0].size if _sparse(d, n) or bound < size else amps.size
        return bound, size * amps.size
    if step is _measure_step:
        size //= make[1][make[2]]
        return min(bound, size), size
    if bound < size:  # a gate or a conditioned gate, classified by its (first) power
        gate = make[3] if step is _gate_step else make[5][0]
        if _spreads(gate):
            bound = min(bound * gate.dim, size)
    return bound, size


def compile_plan(circuit: DistCircuit, upto: int | None = None) -> Plan:
    """Resolve the first ``upto`` instructions against the register layout (see the module docstring).

    Checks the register cap first, then, in one forward walk that also reads
    the gadgets, the rules that need the circuit, and raises ValueError for
    the first instruction that breaks one: a condition term that no earlier
    Measure names, a label not in the register where it is used, a resource
    label already in it. Each instruction has checked itself when it was built,
    and ``circuit_dims`` the dimensions. Only then are the gadgets contracted
    and the steps built; no simulation kernel runs.
    """
    dims = circuit_dims(circuit)
    peak, branch_bound = _bounds_of(circuit, upto)
    check_register_dim(peak)
    labels = tuple(circuit.inputs)
    reg_dims = tuple([dims[label] for label in labels])
    start = math.prod(reg_dims)
    keys, readers, unmeasured = _symbol_uses(circuit.instructions)
    # (step constructor and arguments, merge key spec, instruction index) per instruction; no
    # merge after a LocalGate or a resource (see Plan)
    explicit: list = []
    reads: list = []  # the gadgets read, in order
    first = None  # the position in explicit of the resource of the gadget being read, while one is
    for i, ins in enumerate(circuit.instructions[:upto]):
        kind = ins.kind
        if unmeasured and i in unmeasured:
            raise ValueError(f"instruction {i}: condition references unmeasured "
                             f"symbol {unmeasured[i]!r}")
        if kind == "LocalGate" or kind == "CondGate":
            u = gate_unitary(ins.gate, ins.params)
            targets = ins.targets
            # the instruction has matched its targets with the gate, and circuit_dims their
            # dims, so only a label missing from the register is left to find
            try:
                axes = ((labels.index(targets[0]),) if len(targets) == 1
                        else tuple([labels.index(t) for t in targets]))
            except ValueError:
                for t in targets:
                    label_axis(labels, t)  # raises for the first unknown label
            if kind == "LocalGate":
                step = (_gate_step, reg_dims, axes, u), None, i
                joins = first is not None
                if joins:
                    ops.append(("G", targets, u))
                    touched.update(targets)
            else:  # each power once per value; the conditions are evaluated at run time
                terms, mod = ins.condition.terms, ins.condition.mod
                powers = (u,)
                if mod > 2:
                    powers += tuple([gate_power(ins.gate, ins.params, v) for v in range(2, mod)])
                step = (_cond_step, reg_dims, axes, terms, mod, powers), keys[i + 1], i
                joins = first is not None and measured.issuperset(terms)
                if joins:
                    ops.append(("C", targets, powers, terms, mod))
                    touched.update(targets)
        elif kind == "Measure":
            label = ins.targets[0]
            try:
                axis = labels.index(label)
            except ValueError:
                label_axis(labels, label)  # raises
            symbol = ins.outcome or f"_m{i}"
            step = (_measure_step, reg_dims, axis, symbol), keys[i + 1], i
            # a share, or a data label an op of the gadget touched, while M can still reach d_A
            joins = first is not None and label in touched and d_a % (taken * reg_dims[axis]) == 0
            if joins:
                taken *= reg_dims[axis]
                measured.add(symbol)
                ops.append(("M", label, symbol))
                end = max(end, readers.get(i, i))
            labels = labels[:axis] + labels[axis + 1:]
            reg_dims = reg_dims[:axis] + reg_dims[axis + 1:]
        elif kind in RESOURCE_KINDS:
            added = ins.targets
            shares = set(added)
            d = ins.dim or 2
            amps = _resource_amps(d, len(added))
            if not shares.isdisjoint(labels):
                raise ValueError(f"label collision: {set(labels) & shares}")
            # a gadget opens, and one being read stays explicit; touched holds its shares and
            # the data labels its ops touch
            begin, end, resource, before = i, i, ins, (labels, reg_dims)
            touched, measured, ops, d_a, taken = set(added), set(), [], amps.size, 1
            first = len(explicit)
            explicit.append(((_resource_step, amps, d, len(added), math.prod(reg_dims)), None, i))
            labels, reg_dims = labels + added, reg_dims + (d,) * len(added)
            continue
        elif kind == "ClassicalSend":
            live = keys[i + 1]
            step = None if live == keys[i] else ((), live, i)
            joins = first is not None
        else:  # pragma: no cover - Instruction rejects unknown kinds
            raise ValueError(f"unknown instruction kind {kind!r}")
        if step is not None:
            explicit.append(step)
        if not joins:
            first = None  # no gadget: its range stays explicit
        elif taken == d_a and i >= end:
            reads.append(_Read(begin, end, resource, *before, measured, ops, first,
                               len(explicit)))
            first = None

    # every check has run: contract the gadgets, fold the largest register and the row bound
    # in, and note each step's instruction range and, while every branch is dense, its kernel
    # if it fuses
    plan_steps, gadgets, spans, kernels = [], [], [], []
    bound, size, built, most = None, start, start, start  # see _bounded
    at = 0  # the position in explicit of the next step
    for entry in reads + [None]:
        for make, live, i in explicit[at:len(explicit) if entry is None else entry.first]:
            plan_steps.append((make or None, live))
            spans.append((i, i))
            kernels.append(None if bound is not None or not make or make[0] is not _gate_step
                           or _spreads(make[3]) else _gate_kernel(*make[1:]))
            if make and (bound is not None or make[0] is _resource_step):
                bound, size = _bounded(make, bound, size)
                built = max(built, size)
                most = max(most, size if bound is None else bound)
        if entry is None:
            break
        at = entry.first  # unless it contracts, its range runs next, step by step
        live = keys[entry.end + 1]
        # its outcome symbols that the key reads: grouping on them is finer, and sound
        read = live and tuple(sorted(entry.measured.intersection(
            [t for terms, _ in live for t in terms])))
        res = entry.resource
        found = _contract(res.targets, res.dim or 2, tuple(entry.ops), read)
        # its register is the one before it; one that moves labels runs only while every
        # branch is dense (see the module docstring)
        if found and (bound is None or found[0].out is None):
            gadget, data, symbols = found
            axes = tuple([entry.labels.index(label) for label in data])
            plan_steps.append(((_gadget_step, gadget, entry.dims, axes, symbols), live))
            gadgets.append((entry.start, entry.end))
            spans.append((entry.start, entry.end))
            fuses = bound is None and len(gadget.groups) == 1 and not gadget.dense
            kernels.append(_group_kernel(gadget, entry.dims, axes, symbols) if fuses else None)
            if bound is not None and gadget.dense:
                bound = min(bound * math.prod([entry.dims[a] for a in axes]), size)
                most = max(most, bound)
            at = entry.stop
    plan_steps, fused = _fuse(plan_steps, spans, kernels)
    return Plan(circuit, upto, dict(dims), peak, built, most, branch_bound, tuple(plan_steps),
                tuple(explicit), tuple(gadgets), fused, labels, reg_dims)


def _gate_kernel(dims: tuple[int, ...], axes: tuple[int, ...], gate) -> tuple:
    """``(dims, (kernel plan, matrix), None)`` of a LocalGate's step that may fuse (see
    ``_fuse``)."""
    return dims, (_gate_plan(gate, dims, axes), gate.entries), None


def _group_kernel(gadget: _Gadget, dims: tuple[int, ...], axes: tuple[int, ...],
                  symbols: tuple[str, ...]) -> tuple:
    """``(dims, (kernel plan, matrix), (outcome records, weight, p))`` of the step of a
    contracted gadget of one group, which may fuse (see ``_fuse``)."""
    outcomes, u, count, p = gadget.groups[0]
    return (dims, (_group_plan(gadget, dims, axes, 0)[0], u),
            (tuple(zip(symbols, outcomes)), count, p))


def _fuse(steps: list, spans: list, kernels: list) -> tuple[list, tuple[tuple[int, int], ...]]:
    """``(steps, fused)``: the plan's ``(step, merge key spec)`` pairs of ``steps``' ``(step
    constructor and arguments, spec)`` pairs, and the instruction range of each fused step.

    Each maximal run of two or more steps with a kernel (``kernels``, None for a
    step that does not fuse), with at most steps that run nothing (a
    ClassicalSend's, None) between them, becomes one ``steps._fused_step``,
    which carries the merge key spec of its last member that has one (see the
    module docstring) and gets its range from ``spans``, each step's. Its
    members' own steps are not built; every other step is built here.
    """
    out, fused = [], []
    i = 0
    while i < len(steps):
        make, live = steps[i]
        last = i  # the run's last member
        if kernels[i] is not None:
            j, spec = i + 1, live
            while j < len(steps) and (kernels[j] is not None or steps[j][0] is None):
                if steps[j][1] is not None:
                    spec = steps[j][1]
                if kernels[j] is not None:
                    last, live = j, spec
                j += 1
        if last == i:
            out.append((make and make[0](*make[1:]), live))
            i += 1
            continue
        members = [m for m in range(i, last + 1) if kernels[m] is not None]
        outcomes, values, weight, probs = (), {}, 1, []
        for m in members:
            if kernels[m][2] is not None:  # a gadget's
                pairs, count, p = kernels[m][2]
                outcomes += pairs
                values.update(pairs)
                weight *= count
                if p != 1.0:  # x * 1.0 is x
                    probs.append(p)
        out.append((_fused_step(kernels[i][0], tuple([kernels[m][1] for m in members]),
                                (outcomes, values, weight, tuple(probs))), live))
        fused.append((spans[i][0], spans[last][1]))
        i = last + 1
    return out, tuple(fused)


def run_steps(steps, frontier: list[_Branch]) -> list[_Branch]:
    """Run ``(step, merge key spec)`` pairs (see ``Plan``) on ``frontier``; returns the last one.

    A spec that is not None merges the frontier after its step; an unmerged
    run's pairs all carry None.
    """
    for step, live in steps:
        if step is not None:
            frontier = step(frontier)
        if live is not None and len(frontier) > 1:
            frontier = _merge(frontier, live)
    return frontier


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
    a caller running several batches compiles it once. ``run_steps`` runs its
    steps with merging, and without it the steps of ``plan.explicit``, one per
    instruction, built here.
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
    steps = plan.steps if merge_equal else [(make[0](*make[1:]), None)
                                            for make, _, _ in plan.explicit if make]
    ones = np.ones(k)  # the first frontier is built in the call, so that the runner drops it
    frontier = run_steps(steps, [_Branch(amps, ones, (), {}, 1, ones > 0)])

    labels, out_dims = plan.labels, plan.out_dims
    for br in frontier:  # a sparse branch's rows, scattered into its register
        if br.rows is not None:
            full = np.zeros((br.rows.size, k), np.complex128)
            full[br.rows.rows] = br.amps
            br.amps = full
    if input_state.amps.ndim == 1:
        return [BranchResult(br.outcomes, float(br.prob[0]),
                             MixedRegister._wrap(out_dims, br.amps[:, 0], labels), br.weight)
                for br in frontier]
    return [BranchResult(br.outcomes, br.prob, MixedRegister._wrap(out_dims, br.amps, labels),
                         br.weight, br.alive)
            for br in frontier]
