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
a measurement, or a ClassicalSend that changes the key (see ``Plan``). A
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
(``unmerged_branch_bound``) is rejected up front. Both bounds come from one
forward walk (``_bounds``). The subsystem dimensions they need are inferred
once per circuit object and held by it (``circuit_dims``): ``infer_dims``,
``verify``'s input generators and ``compile_plan`` on one circuit walk its
instructions for them once, and ``infer_dims`` hands each caller a copy. The
same walk counts the resources that ``verify`` reports (``resource_counts``).

For the same reason the instruction list is compiled once into a ``Plan``
(``compile_plan``) before any branch runs, walking the register layout the way
``peak_register_dim`` does. A label map, updated at each resource and
measurement, gives each target's axis; wherever it finds no valid axes,
``statevec.target_axes`` or ``label_axis`` resolves the targets again and
raises its error. A gate gets its target axes, its matrix and the matrix's
kernel plan, and a conditioned gate its axes and its powers, each resolved
once per value, with the duplicate-target, unknown-label and arity checks; a
power's kernel plan is looked up when its value first occurs. Gates and
powers are the cached, read-only ``Unitary`` objects of ``gates``, so their
kernel plans are cached by gate object and layout (``_gate_plan``), without
the content key of ``backend.kernel_plan``. A resource gets its state's
amplitudes, read-only and cached by dimension and party count, and the
label-collision check, and a measurement its target's axis and the sizes
around it. A bad instruction therefore raises ``ValueError`` before any
kernel runs, and before any gadget is built (see below). The branch loop,
``run_steps``, holds bare amplitude matrices (``_Branch``: amplitudes,
per-column probability and alive mask, outcome record, symbol values,
weight, support) and its steps (module ``steps``) hand them straight to the
kernels: each gate to ``backend.apply_matrix``, each measurement to
``statevec.measure_amps`` and each resource to ``statevec.tensor_amps``,
which are also the arithmetic of ``measure_enumerate`` and ``tensor``, minus
their per-call label lookups and checks. ``verify`` compiles one plan and
shares it across its input chunks.

Gadgets. The teleported gates and fan-outs are chains of gate-teleportation
gadgets (Gottesman & Chuang, Nature 402, 390 (1999); Eisert et al., PRA 62,
052317 (2000)), and each is contracted into one step when the plan is
compiled. A gadget is a resource instruction over labels A, every later
instruction through the measurement of all of A, and then through the last
CondGate that reads one of those outcomes. One backward pass
(``_symbol_uses``) finds every measurement's last reader, and the walk that
resolves the instructions also reads each gadget (``_Candidate``), so
finding the gadgets is linear in the circuit. A gadget
contracts when it measures only A, holds no other resource, conditions only
on outcomes it has measured, ends within ``upto``, touches some data labels
S, and d_S^2 d_A <= ``GADGET_AMPLITUDES`` (the build's register, below). At
2^12 every two-qubit gadget and every fan-out with d_S <= 16 qualifies. The
larger ones (the qudit gadgets with d_S = 64, the GHZ(7) layer of a 7-qubit
GMS fan-out) keep their per-instruction steps, as does a circuit that
measures a data qubit (``teleport_all``).

The build (``_gadget``) runs the gadget's instructions as the plan's own
steps (``run_steps``, without merging) on the identity batch over S
tensored with the resource state. Record r ends as a branch whose column i
is K_r e_i renormalized, of probability ||K_r e_i||^2, for the record's
Kraus operator K_r on S: K_r is those amplitudes times the square roots of
those probabilities. The gadget contracts only when all d_A records survive
and each has K_r^dagger K_r = p_r I (within ``UNITARY_TOL``) and p_r >=
``PRUNE_TOL``; otherwise its per-instruction steps stay. On a column psi
those steps then compute conditional probabilities of at least p_r (each is
the summed p of the records that share that prefix of r), so they prune
nothing, and end with K_r psi / sqrt(p_r) = U_r psi, U_r unitary, of
probability p_r. So the contracted step forks every branch into the
gadget's records in the per-instruction order (lexicographic in measurement
order), with the same outcome records and symbol values, the probability
times p_r and the alive mask unchanged (a dead column, zero amplitudes,
stays dead), and applies each U_r to the data axes with
``backend.apply_matrix``: the register never grows by A. Entries of U_r
within ``MERGE_ATOL / d_S`` of zero are rounding noise and are set to zero,
so that the kernel sees a diagonal or monomial U_r as such.

With merging, the records are grouped at plan time: a record joins the first
group whose first record has the same values of the gadget's symbols that
the merge key after the gadget reads and a unitary within
``MERGE_ATOL / d_S`` of its own. Those values decide the key's partial sums
there, so the grouping is at least as fine as the merge key. For every
normalized column the two states then differ by at most ``MERGE_ATOL`` in
each amplitude, so the first-match merge would merge them anyway. A group
forks one branch, of the group's size as weight and the sum of its records'
probabilities, which keeps its first record; the usual merge follows the
step. Without merging every record is a branch of its own, so
``MAX_BRANCHES`` and ``unmerged_branch_bound`` hold as before.

Builds are cached by a canonical key (``_gadget``): data and resource
labels are numbered in order of use, outcome symbols by their measurement,
gates are their resolved unitaries, and ClassicalSends are left out, so the
60 teleported CZs of a 12-qubit pairwise GCZ share one build. A build
stores each distinct unitary once and keeps their kernel plans per register
layout itself, outside the backend's LRU. A second cache (``_contract``)
maps a gadget in its own labels and symbols to its build, so that compiling
a circuit again, or another circuit with the same gadgets, repeats no
canonicalization. Each cache holds 1024 entries; the benchmark's suite and
dropped-correction workloads together need 277 and 63, so nothing is built
twice.

Row-sparse branches. A GHZ state over n parties of dimension d multiplies
the register by d^n but has only d nonzero amplitudes, so a branch that
holds it has at most d nonzero rows per row before it (the state-sparsity
method of Jaques & Haner, arXiv:2105.01533). A resource whose amplitudes
are at most a quarter nonzero (``_sparse``: every GHZ state of three or more
parties and every d >= 4 pair, but not a qubit Bell pair) therefore gives
each branch a support (``steps._Support``): the sorted register rows it
holds, with ``amps`` one row per support row. A dense branch has none
(``rows`` is None) and runs exactly the dense kernels above, and a step
before the plan's first sparse resource is built without the row kernels
(``rowed``), so a plan with no sparse resource does the work it did before
supports. The rows outside a support are exact zeros under every kernel,
so the support loses nothing:

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

``Plan.row_bound`` bounds the rows any branch holds at any step. The walk
that finds the gadgets folds it in step order, from the input register:
a sparse resource multiplies it by its nonzero amplitudes (and a dense one
by its whole size while a branch may be dense), a dense gate, or a gadget
with a dense unitary, by its dimension m, up to the register, and a
measurement keeps it, up to the register after it. A plan with no sparse
resource keeps every branch dense, and its bound is ``simulated_peak``.

``peak_register_dim`` and the cap check keep the explicit peak, the largest
register of the per-instruction steps, so contraction and supports accept
and reject the same circuits; ``MAX_BRANCHES`` likewise counts branches
whatever they hold. ``Plan.simulated_peak`` is the largest register a step
of the plan actually builds; ``Plan.row_bound``, at most that, sizes
``verify``'s chunks and decides whether a run owns a pool.

A run whose row bound reaches ``backend.POOL_MIN_BYTES`` owns one
``backend.BufferPool``, handed to every gate and gadget step and dropped
when the run returns (a smaller run has none). Its one foreign array is the
caller's input batch; every other matrix in the frontier belongs to exactly
one branch, so ``backend.apply_matrix`` may write a large one in place or
recycle it (see ``backend``). A branch that a gadget step forks into more
than one branch is read by all of their applies, so none of them gets the
pool. Measurements, resources, merges and the kernels on supports recycle
nothing: they are pure, and a merged branch's matrix is simply dropped.
Cached resource states, gate matrices, gadget unitaries and row plans are
only read.
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
                       label_axis, target_axes)
from .steps import (_Branch, _cond_step, _gadget_step, _gap, _gate_step, _ghz_amps,
                    _measure_step, _resource_amps, _resource_nonzero, _resource_step, _sparse,
                    _spreads)

MERGE_ATOL = 1e-12
MAX_BRANCHES = 2 ** 16
MAX_INPUT_AMPLITUDES = 2 ** 24  # random inputs times their dimension; 256 MiB of amplitudes
MAX_SWEEP_QUBITS = 2 ** 20  # the summed n of the rows of an `estimate --sweep`; a row costs O(n)
MAX_COMPILE_PAIRS = 2 ** 15  # qubit pairs of a `compile` shape (n <= 256); a build costs O(pairs)
GADGET_AMPLITUDES = 2 ** 12  # d_S^2 d_A of a gadget's build (see the module docstring)


def circuit_dims(circuit: DistCircuit) -> dict[str, int]:
    """``infer_dims`` without the copy: walked once per circuit object and held by it.

    A circuit is frozen, so its dims never change; callers only read the
    dict. A circuit whose dims conflict holds nothing and raises on every call.
    The same walk counts the resources (``resource_counts``).
    """
    held = vars(circuit)
    if "_dims" in held:
        return held["_dims"]
    dims: dict[str, int] = {}
    resources: dict[tuple[int, int], int] = {}
    for ins in circuit.instructions:
        if ins.kind in ("LocalGate", "CondGate") and ins.gate is not None:
            pairs = zip(ins.targets, gate_arity(ins.gate))
        elif ins.kind in RESOURCE_KINDS:
            pairs = zip(ins.targets, (ins.dim or 2,) * len(ins.targets))
            key = resource_key(ins)
            resources[key] = resources.get(key, 0) + 1
        else:
            continue
        for label, d in pairs:
            if dims.setdefault(label, d) != d:
                raise ValueError(
                    f"subsystem {label!r} used with dimensions {dims[label]} and {d}")
    for label in circuit.inputs:
        dims.setdefault(label, 2)
    held["_resources"] = resources
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


def _bounds(circuit: DistCircuit, upto: int | None, dims: dict[str, int]) -> tuple[int, int]:
    """``(peak_register_dim, unmerged_branch_bound)`` of the first ``upto`` instructions, from
    one walk."""
    present = {label: dims[label] for label in circuit.inputs}
    size = peak = math.prod(present.values())
    branches = 1
    for ins in circuit.instructions[:upto]:
        kind = ins.kind
        if kind == "Measure":
            if ins.targets:
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


def peak_register_dim(circuit: DistCircuit, upto: int | None = None,
                      dims: dict[str, int] | None = None) -> int:
    """Largest register dimension any branch reaches in the first ``upto`` instructions.

    Computed from the instruction list alone: resources add subsystems and
    measurements remove them, the same way in every branch. ``dims`` is
    ``infer_dims(circuit)``, taken from the circuit when not given.
    """
    return _bounds(circuit, upto, circuit_dims(circuit) if dims is None else dims)[0]


def unmerged_branch_bound(circuit: DistCircuit, upto: int | None = None,
                          dims: dict[str, int] | None = None) -> int:
    """Most branches an enumeration without merging can reach in the first ``upto`` instructions.

    The product of the measured subsystems' dimensions: one fork per outcome.
    ``dims`` is ``infer_dims(circuit)``, taken from the circuit when not given.
    """
    return _bounds(circuit, upto, circuit_dims(circuit) if dims is None else dims)[1]


class _Gadget(NamedTuple):
    """A gadget's outcome records and their unitaries, built once per canonical key.

    ``records`` holds ``(outcomes, u, p)`` per outcome record, in record order:
    the outcome of each measurement in measurement order, the index of its
    unitary in ``unitaries`` and its probability. ``groups`` holds
    ``(record, count, p)``: the first record of each plan-time merge group, how
    many records it stands for and their summed probability. ``plans`` holds
    the kernel plan of each unitary per register layout, filled as layouts
    occur. ``dense`` is whether some unitary is neither diagonal nor monomial,
    so that it can spread a sparse branch over more rows.
    """

    unitaries: tuple[np.ndarray, ...]
    records: tuple[tuple[tuple[int, ...], int, float], ...]
    groups: tuple[tuple[int, int, float], ...]
    plans: dict
    dense: bool


@lru_cache(maxsize=1024)
def _gadget(key: tuple) -> _Gadget | None:
    """Build the gadget ``key`` describes (see ``_contract``), or None when it does not contract.

    Runs the gadget's ops as the plan's own steps, without merging or a pool,
    and takes each record's K_r from its branch (see the module docstring).
    It contracts when all d^n records survive and every K_r^dagger K_r is p_r I
    within ``UNITARY_TOL`` with p_r >= ``PRUNE_TOL``; record r then applies
    U_r = K_r / sqrt(p_r).
    """
    s_dims, d, n, ops, live = key
    d_s = math.prod(s_dims)
    register = list(range(len(s_dims))) + [-1 - k for k in range(n)]  # label ids, as in the key
    dims = s_dims + (d,) * n
    steps = []
    for kind, *op in ops:
        if kind == "M":
            share, symbol = op
            axis = register.index(share)
            steps.append((_measure_step(dims, axis, symbol), None))
            register.pop(axis)
            dims = dims[:axis] + dims[axis + 1:]
            continue
        axes = tuple(register.index(label) for label in op[0])
        if kind == "G":
            steps.append((_gate_step(dims, axes, op[1]), None))
        else:  # "C", a conditioned gate with its powers from 1 on
            _, powers, terms, mod = op
            steps.append((_cond_step(dims, axes, terms, mod, powers), None))
    start = np.kron(np.eye(d_s, dtype=np.complex128), _ghz_amps(d, n).reshape(-1, 1))
    ones = np.ones(d_s)
    branches = run_steps(steps, [_Branch(start, ones, (), {}, 1, ones > 0)], None, False)
    if len(branches) < d ** n:  # a record pruned on every column
        return None
    eye = np.eye(d_s)
    atol = MERGE_ATOL / d_s  # a column's amplitudes then move by at most MERGE_ATOL
    unitaries: list[np.ndarray] = []
    records = []
    for br in branches:
        k = br.amps * np.sqrt(br.prob)
        gram = k.conj().T @ k
        p = gram.trace().real / d_s
        if not (p >= PRUNE_TOL and abs(gram - p * eye).max() <= UNITARY_TOL):
            return None
        u = k / math.sqrt(p)
        u[abs(u) <= atol] = 0  # rounding noise, which would make the kernel dense
        index = next((i for i, v in enumerate(unitaries) if np.array_equal(u, v)), None)
        if index is None:
            u.flags.writeable = False  # shared by every plan of this key
            index = len(unitaries)
            unitaries.append(u)
        records.append((tuple([outcome for _, outcome in br.outcomes]), index, p))
    groups: list[list] = []  # [record, count, p]
    for r, (outcomes, index, p) in enumerate(records):
        same = [outcomes[i] for i in live]
        for group in groups:
            first = records[group[0]]
            if ([first[0][i] for i in live] == same
                    and abs(unitaries[first[1]] - unitaries[index]).max() <= atol):
                group[1] += 1
                group[2] += p
                break
        else:
            groups.append([r, 1, p])
    dense = any(backend.spreads(u) for u in unitaries)
    return _Gadget(tuple(unitaries), tuple(records), tuple(map(tuple, groups)), {}, dense)


class Plan(NamedTuple):
    """A circuit's first ``upto`` instructions resolved once for every branch.

    ``steps`` pairs each step, a function from frontier, the run's pool
    (which only gate and gadget steps use) and whether branches merge to
    frontier, with the merge key spec after it, or with None when no merge
    follows the step; ``run_steps`` runs them. A spec is a tuple of
    ``(terms, mod)`` entries, one for each distinct partial sum that a later
    condition will read (see the module docstring): the sum of the terms'
    values mod ``mod``. Branches can only meet after a step that treats them
    differently, or after which the key reads less of them:

    - a contracted gadget, a CondGate or a Measure is followed by a merge;
    - a LocalGate or a resource applies one map to every branch and leaves
      the key as it was, so the merge after it would find nothing the merge
      before it missed, and it gets None (but see the caveat in the module
      docstring);
    - a ClassicalSend is free in simulation (the resource tally audits it),
      so its step is None. It gets no pair at all when its spec is that of
      the instruction before it: the merge after it would compare the same
      frontier under the same keys as the merge before it, and so merge
      nothing.

    ``gadgets`` holds the first and last instruction index of each contracted
    gadget, in order; its one step stands for the steps of all of those
    instructions (see the module docstring for the rule, the proof, the
    grouping, the budget and the cache). ``peak`` is
    the explicit peak register (``peak_register_dim``), which the cap check
    uses; ``simulated_peak`` is the largest register a step builds, at most
    ``peak``; ``row_bound`` is the most rows a branch holds after any step,
    at most ``simulated_peak`` (see the module docstring). ``labels`` and
    ``out_dims`` describe the register after the last step.
    """

    circuit: DistCircuit
    upto: int | None
    dims: dict[str, int]
    peak: int
    simulated_peak: int
    row_bound: int
    branch_bound: int
    steps: tuple[tuple[Callable | None, tuple | None], ...]
    gadgets: tuple[tuple[int, int], ...]
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
    each CondGate that reads a symbol never measured before it to the first
    such symbol. Only a CondGate or a ClassicalSend has a condition (see
    ``Instruction``); a ClassicalSend's is never evaluated: an unmeasured term reads 0.
    """
    keys: list[tuple] = [()] * (len(instructions) + 1)
    readers: dict[int, int] = {}
    last: dict[str, int] = {}  # symbol -> its last reader after the current index
    rest: dict[int, tuple] = {}  # condition -> its entry, (its terms left, its modulus)
    holders: dict[str, list[int]] = {}  # symbol -> the conditions in rest that hold it
    entries: dict[tuple, int] = {}  # entry -> how many conditions in rest have it

    def enter(j: int, terms: tuple, mod: int) -> bool:
        """Give condition j the entry ``(terms, mod)``; True if no condition had it."""
        entry = rest[j] = terms, mod
        count = entries.get(entry, 0)
        entries[entry] = count + 1
        return not count

    spec: tuple | None = ()  # None once the entries have changed
    for i in range(len(instructions) - 1, -1, -1):
        ins = instructions[i]
        if ins.kind == "Measure":
            symbol = ins.outcome or f"_m{i}"
            reader = last.pop(symbol, None)
            if reader is not None:
                readers[i] = reader
            for j in holders.pop(symbol, ()):
                old = rest.pop(j)
                count = entries.pop(old)
                if count > 1:
                    entries[old] = count - 1
                else:
                    spec = None
                if len(old[0]) > 1:  # else the condition has no term left
                    terms = tuple([t for t in old[0] if t != symbol])
                    if terms and enter(j, terms, old[1]):
                        spec = None
        condition = ins.condition
        if condition is not None and condition.terms:  # read before a measurement at i
            terms = condition.terms
            if ins.kind == "CondGate":
                for symbol in terms:
                    last.setdefault(symbol, i)
            if len(terms) == 1:
                holders.setdefault(terms[0], []).append(i)
            else:
                for symbol in set(terms):
                    holders.setdefault(symbol, []).append(i)
            if enter(i, terms, condition.mod):
                spec = None
        if spec is None:
            spec = tuple(entries)
        keys[i] = spec
    unmeasured = {j: entry[0][0] for j, entry in rest.items()
                  if instructions[j].kind == "CondGate"}
    return keys, readers, unmeasured


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


def _merge(frontier: list[_Branch], spec: tuple) -> list[_Branch]:
    """Merge each branch into the first earlier kept branch equal to it (see the module docstring).

    ``spec`` is the step's merge key spec (see ``Plan``). Branches on different
    supports are compared on the union of their rows (``_gap``).
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
        small = br.amps.nbytes < backend.POOL_MIN_BYTES
        for kept in bucket:
            # np.allclose(rtol=0, atol=MERGE_ATOL) on finite amplitudes
            if kept.rows is not br.rows:
                far = _gap(kept, br)
            elif small:
                far = abs(kept.amps - br.amps).max()
            else:
                far = _distance(kept.amps, br.amps)
            if far <= MERGE_ATOL:
                kept.prob = kept.prob + br.prob
                kept.weight += br.weight
                break
        else:
            bucket.append(br)
            merged.append(br)
    return merged


class _Candidate:
    """A gadget that ``compile_plan`` is reading, one instruction at a time.

    It opens at a resource over labels A and closes once all of A is measured
    and the last CondGate reading one of those outcomes (``readers``) has
    been read. ``add`` returns False when an instruction shows that the
    instructions are no gadget: another resource, a measurement outside A, or
    a condition on an outcome the gadget has not measured. Meanwhile it
    collects the gadget's operations, in its own labels and symbols, for
    ``_contract``, and the per-instruction steps, ``makes``, that stand if it
    does not contract.
    """

    __slots__ = ("start", "end", "resource", "labels", "dims", "pending", "measured", "ops",
                 "makes")

    def __init__(self, start: int, resource: Instruction, labels: tuple[str, ...],
                 dims: tuple[int, ...]):
        self.start = self.end = start
        self.resource = resource
        self.labels, self.dims = labels, dims  # the register before the resource
        self.pending = set(resource.targets)  # the labels of A not measured yet
        self.measured: set[str] = set()  # outcome symbols
        self.ops: list[tuple] = []
        self.makes: list[tuple] = []  # (step constructor and arguments, merge key)

    def add(self, i: int, ins: Instruction, gate, readers: dict[int, int]) -> bool:
        """Read instruction ``i``, whose resolved gate is ``gate``; False if it is no gadget's."""
        kind = ins.kind
        if kind == "LocalGate":
            self.ops.append(("G", ins.targets, gate))
        elif kind == "CondGate":  # compile_plan has checked that it has a condition
            for term in ins.condition.terms:
                if term not in self.measured:
                    return False
            self.ops.append(("C", ins.targets, gate, ins.condition.terms, ins.condition.mod))
        elif kind == "Measure":
            if ins.targets[0] not in self.pending:
                return False
            self.pending.remove(ins.targets[0])
            symbol = ins.outcome or f"_m{i}"
            self.measured.add(symbol)
            self.ops.append(("M", ins.targets[0], symbol))
            self.end = max(self.end, readers.get(i, i))
        elif kind != "ClassicalSend":  # another resource
            return False
        return True


@lru_cache(maxsize=1024)
def _contract(shares: tuple[str, ...], d: int, ops: tuple, live: tuple[str, ...]):
    """``(gadget, data labels, outcome symbols)`` of a gadget, or None when it does not contract.

    ``shares`` are the resource's labels and ``d`` their dimension; ``ops``
    are the gadget's operations from ``_Candidate`` and ``live`` its outcome
    symbols that the merge key after it reads. None when the gadget touches
    no data label, its build would pass ``GADGET_AMPLITUDES``, or ``_gadget``
    finds a record that is not unitary.

    The build's key is canonical: data labels are numbered 0, 1, ... in order
    of first use and the resource's labels -1, -2, ...; each measurement's
    symbol is its position among the measurements, and gates are their
    resolved unitaries (a conditioned gate's powers from 1 on).
    ClassicalSends are left out. Gadgets that differ only in labels and
    symbols therefore share one build.
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
    if not data or math.prod(s_dims) ** 2 * d ** len(shares) > GADGET_AMPLITUDES:
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


def _axis_map(labels: tuple[str, ...]) -> dict[str, int]:
    """Each label's axis in a register over ``labels``, the first one as ``labels.index`` finds."""
    return dict(zip(reversed(labels), range(len(labels) - 1, -1, -1)))


def _target_axes(axis_of: dict[str, int], labels: tuple[str, ...], dims: tuple[int, ...],
                 targets: tuple[str, ...], arity: tuple[int, ...]) -> tuple[int, ...]:
    """``statevec.target_axes`` through the label map ``axis_of`` of ``labels``.

    Wherever the map finds no valid answer, ``target_axes`` resolves the
    targets again, and raises its error.
    """
    if len(targets) == 1:
        axis = axis_of.get(targets[0])
        if axis is not None and (dims[axis],) == arity:
            return (axis,)
    else:
        axes = tuple([axis_of.get(t) for t in targets])
        if (None not in axes and len(set(axes)) == len(axes)
                and tuple([dims[a] for a in axes]) == arity):
            return axes
    return target_axes(labels, dims, targets, arity)


def compile_plan(circuit: DistCircuit, upto: int | None = None) -> Plan:
    """Resolve the first ``upto`` instructions against the register layout (see the module docstring).

    Checks the register cap first, then every instruction, and raises
    ValueError for the first bad one (a CondGate that reads a symbol never
    measured before it among them). Only then are the gadgets contracted;
    no simulation kernel runs.
    """
    dims = circuit_dims(circuit)
    peak, branch_bound = _bounds(circuit, upto, dims)
    check_register_dim(peak)
    labels = tuple(circuit.inputs)
    reg_dims = tuple(dims[label] for label in labels)
    axis_of = _axis_map(labels)
    start = math.prod(reg_dims)
    instructions = circuit.instructions[:upto]
    keys, readers, unmeasured = _symbol_uses(circuit.instructions)
    steps: list = []  # (step constructor and arguments, merge key), or a _Candidate for a gadget
    candidate = None  # the gadget being read
    for i, ins in enumerate(instructions):
        kind = ins.kind
        gate = None  # a gate's unitary, or a conditioned gate's powers from 1 on
        if kind == "LocalGate" or kind == "CondGate":
            gate = u = gate_unitary(ins.gate, ins.params)
            axes = _target_axes(axis_of, labels, reg_dims, ins.targets, u.arity)
            if kind == "LocalGate":
                make = (_gate_step, reg_dims, axes, u)
            else:  # each power once per value; the conditions are evaluated at run time
                condition = ins.condition
                if condition is None:
                    raise ValueError(f"instruction {i}: CondGate {ins.gate} on "
                                     f"{list(ins.targets)} has no condition")
                if i in unmeasured:
                    raise ValueError(f"instruction {i}: condition references unmeasured "
                                     f"symbol {unmeasured[i]!r}")
                gate = (u,)
                if condition.mod > 2:
                    gate += tuple([gate_power(ins.gate, ins.params, v)
                                   for v in range(2, condition.mod)])
                make = (_cond_step, reg_dims, axes, condition.terms, condition.mod, gate)
        elif kind in RESOURCE_KINDS:
            added = ins.targets
            if len(set(added)) != len(added):
                raise ValueError("labels must be unique")
            d = ins.dim or 2
            amps = _resource_amps(d, len(added))
            if collision := set(labels) & set(added):
                raise ValueError(f"label collision: {collision}")
            make = (_resource_step, amps, d, len(added), math.prod(reg_dims))
            before = labels, reg_dims
            axis_of.update(zip(added, range(len(labels), len(labels) + len(added))))
            labels, reg_dims = labels + added, reg_dims + (d,) * len(added)
        elif kind == "Measure":
            axis = axis_of.get(ins.targets[0])
            if axis is None:
                axis = label_axis(labels, ins.targets[0])  # raises
            make = (_measure_step, reg_dims, axis, ins.outcome or f"_m{i}")
            labels = labels[:axis] + labels[axis + 1:]
            reg_dims = reg_dims[:axis] + reg_dims[axis + 1:]
            axis_of = _axis_map(labels)
        elif kind == "ClassicalSend":
            make = None if keys[i + 1] == keys[i] else ()
        else:  # pragma: no cover - Instruction rejects unknown kinds
            raise ValueError(f"unknown instruction kind {kind!r}")
        # no merge after a LocalGate or a resource: see Plan
        live = None if kind == "LocalGate" or kind in RESOURCE_KINDS else keys[i + 1]
        if candidate is not None:
            if candidate.add(i, ins, gate, readers):
                if make is not None:  # a free ClassicalSend has no step
                    candidate.makes.append((make, live))
                if not candidate.pending and i >= candidate.end:
                    steps.append(candidate)
                    candidate = None
                continue
            steps += candidate.makes  # no gadget: the steps of its instructions
            candidate = None
        if kind in RESOURCE_KINDS:
            candidate = _Candidate(i, ins, *before)
            candidate.makes.append((make, live))
        elif make is not None:
            steps.append((make, live))
    if candidate is not None:  # cut by upto
        steps += candidate.makes

    # every check has run: contract the gadgets, build each step with the row kernels once a
    # branch may hold a support, and fold the largest register and the row bound in
    plan_steps, gadgets = [], []
    bound, size, built, most = None, start, start, start  # see _bounded
    for entry in steps:
        if type(entry) is _Candidate:
            if found := _gadget_of(entry, keys):  # its register is the one before it
                gadget, data, symbols = found
                axes = tuple([entry.labels.index(label) for label in data])
                plan_steps.append((_gadget_step(gadget, entry.dims, axes, symbols,
                                                bound is not None), keys[entry.end + 1]))
                gadgets.append((entry.start, entry.end))
                if bound is not None and gadget.dense:
                    bound = min(bound * math.prod([entry.dims[a] for a in axes]), size)
                    most = max(most, bound)
                continue
            entry = entry.makes
        else:
            entry = (entry,)
        for make, live in entry:
            plan_steps.append((make[0](*make[1:], bound is not None) if make else None, live))
            if make and (bound is not None or make[0] is _resource_step):
                bound, size = _bounded(make, bound, size)
                built = max(built, size)
                most = max(most, size if bound is None else bound)
    return Plan(circuit, upto, dict(dims), peak, built, most, branch_bound, tuple(plan_steps),
                tuple(gadgets), labels, reg_dims)


def _gadget_of(entry: _Candidate, keys: list[tuple]):
    """``_contract`` of the gadget ``entry`` has read, with ``keys`` from ``_symbol_uses``."""
    read = set()  # the symbols the key reads; grouping on their values is finer, and sound
    for terms, _ in keys[entry.end + 1]:
        read.update(terms)
    res = entry.resource
    return _contract(res.targets, res.dim or 2, tuple(entry.ops),
                     tuple(sorted(entry.measured & read)))


def run_steps(steps, frontier: list[_Branch], pool: backend.BufferPool | None,
              merge: bool) -> list[_Branch]:
    """Run ``(step, merge key spec)`` pairs (see ``Plan``) on ``frontier``; returns the last one.

    With ``merge``, a spec that is not None merges the frontier after its step.
    """
    for step, live in steps:
        if step is not None:
            frontier = step(frontier, pool, merge)
        if merge and live is not None and len(frontier) > 1:
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
    a caller running several batches compiles it once; ``run_steps`` runs its steps.
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
    pool = None  # the run's large buffers, dropped on return; none when every branch is small
    if plan.row_bound * k * amps.itemsize >= backend.POOL_MIN_BYTES:
        pool = backend.BufferPool(foreign=amps)
    ones = np.ones(k)  # the first frontier is built in the call, so that the runner drops it
    frontier = run_steps(plan.steps, [_Branch(amps, ones, (), {}, 1, ones > 0)], pool, merge_equal)

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
