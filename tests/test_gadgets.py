"""Gadget contraction: each teleported gate or fan-out runs as one step of per-outcome unitaries."""

import gc
import itertools
import tracemalloc
from functools import lru_cache

import numpy as np
import pytest
from conftest import cap_builds, enumerate_reference, gadget_reference
from test_simulate_plan import CASES, LAYOUT, PREFIX, _assert_same_branches, bad_circuit
from test_sparse_rows import CLI_WIDE, _everything

from distgates import (Condition, DistCircuit, Instruction, MixedRegister, NodeLayout, catalog,
                       enumerate_branches, simulate)
from distgates.circuit import RESOURCE_KINDS
from distgates.gates import gate_unitary, shift_matrix
from distgates.simulate import compile_plan
from distgates.verify import random_inputs, verify

# (circuit, the gate it teleports, that gate's data labels in the gadget's order)
TELEPORTED = {
    "CZ": (lambda: DistCircuit(LAYOUT, PREFIX, ("a", "b"), ("a", "b")), "CZ", ("a", "b")),
    "CNOT": (lambda: catalog.tagged("corpus")["dcnot"].build(), "CNOT", ("c", "t")),
    "CSUM4": (lambda: catalog.tagged("corpus")["dcsum4"].build(), "CSUM4", ("Q1", "Q2")),
}


@pytest.fixture
def built(monkeypatch):
    """Records ``(gadget, dims, axes, symbols)`` of every gadget step a plan compiles."""
    steps = []
    real = simulate._gadget_step

    def recording(gadget, dims, axes, symbols):
        steps.append((gadget, dims, axes, symbols))
        return real(gadget, dims, axes, symbols)

    monkeypatch.setattr(simulate, "_gadget_step", recording)
    return steps


@pytest.fixture
def contracted(monkeypatch):
    """Records ``(gadget, data labels, symbols)`` of every gadget a plan contracts, fused or
    not."""
    found = []
    real = simulate._contract

    def recording(*args):
        result = real(*args)
        if result:
            found.append(result)
        return result

    monkeypatch.setattr(simulate, "_contract", recording)
    return found


def _batch(circuit, k=3, seed=5):
    inputs = random_inputs(circuit, k, seed=seed)
    return MixedRegister(inputs[0].dims, np.stack([s.amps for s in inputs], axis=1),
                         inputs[0].labels)


def _identity(circuit) -> MixedRegister:
    """The identity batch over the circuit's inputs: column i is basis state i."""
    dims = tuple(simulate.circuit_dims(circuit)[label] for label in circuit.inputs)
    return MixedRegister(dims, np.eye(int(np.prod(dims)), dtype=complex), circuit.inputs)


def _resource_size(circuit) -> int:
    """d^n of the circuit's one resource, the number of its outcome records."""
    (ins,) = [ins for ins in circuit.instructions if ins.kind in RESOURCE_KINDS]
    return (ins.dim or 2) ** len(ins.targets)


def _weyl(d: int) -> list[np.ndarray]:
    """X^a Z^b for every a, b in Z_d."""
    x = shift_matrix(d)
    z = np.diag(np.exp(2j * np.pi * np.arange(d) / d))
    return [np.linalg.matrix_power(x, a) @ np.linalg.matrix_power(z, b)
            for a in range(d) for b in range(d)]


def _is_weyl(e: np.ndarray, dims) -> bool:
    """Whether ``e`` is a tensor product of Weyl operators on ``dims``, up to a phase."""
    for factors in itertools.product(*(_weyl(d) for d in dims)):
        w = factors[0]
        for f in factors[1:]:
            w = np.kron(w, f)
        overlap = np.vdot(w, e) / len(e)
        if abs(abs(overlap) - 1) < 1e-12 and np.abs(e - overlap * w).max() < 1e-12:
            return True
    return False


@pytest.mark.parametrize("name", sorted(TELEPORTED))
def test_a_teleported_gate_is_one_group_of_its_gate(name, built):
    make, gate, data = TELEPORTED[name]
    circuit = make()
    g = gate_unitary(gate).entries
    plan = compile_plan(circuit)
    assert plan.gadgets == ((0, len(circuit.instructions) - 1),)
    (gadget, dims, axes, symbols), = built
    assert [circuit.inputs[a] for a in axes] == list(data)
    records = _resource_size(circuit)  # one record per outcome of the resource's shares
    (outcomes, u, count, p), = gadget.groups
    assert (outcomes, count) == ((0,) * len(symbols), records)
    assert abs(p - 1) <= 1e-15
    assert np.abs(u - g).max() <= 1e-15
    # every record, each a branch of the unmerged run on the identity batch, is the gate
    assert circuit.outputs == circuit.inputs == data
    branches = enumerate_branches(circuit, _identity(circuit), merge_equal=False)
    assert len(branches) == records
    for br in branches:
        assert np.abs(br.state.amps - g).max() <= 1e-15
        assert np.abs(br.probability - 1 / records).max() <= 1e-15
    # one step and no register grows: the plan's simulated peak is the data register
    assert len(plan.steps) == 1 and plan.simulated_peak == np.prod(dims) < plan.peak


@pytest.mark.parametrize("name", sorted(TELEPORTED))
def test_a_dropped_correction_twists_the_records_by_weyl_operators(name, built):
    make, gate, _ = TELEPORTED[name]
    circuit = make()
    g = gate_unitary(gate).entries
    conds = [i for i, ins in enumerate(circuit.instructions) if ins.kind == "CondGate"]
    assert len(conds) == 2
    for drop in conds:
        built.clear()
        kept = circuit.instructions[:drop] + circuit.instructions[drop + 1:]
        variant = DistCircuit(circuit.layout, kept, circuit.inputs, circuit.outputs)
        assert len(compile_plan(variant).gadgets) == 1, drop
        (gadget, dims, axes, _), = built
        # the twisted records do not merge, so each group's unitary is its records' own
        twists = [g.conj().T @ u for _, u, _, _ in gadget.groups]
        assert all(_is_weyl(e, [dims[a] for a in axes]) for e in twists), drop
        assert len(gadget.groups) > 1, drop
        assert any(np.abs(e - np.eye(len(e))).max() <= 1e-12 for e in twists), drop
        got = enumerate_branches(variant, _batch(variant), merge_equal=True)
        _assert_same_branches(got, enumerate_reference(variant, _batch(variant), True),
                              f"{name} -#{drop}", True)


def test_teleport_all_contracts_every_teleport(contracted):
    # six teleports, three in and three back, around the local CZs: one fused step
    circuit = catalog.gcz(6, 2, "teleport_all")
    plan = compile_plan(circuit)
    assert plan.gadgets == ((0, 8), (9, 17), (18, 26), (42, 50), (51, 59), (60, 68))
    assert len(plan.steps) == 1 and plan.fused == ((0, 68),)
    assert plan.simulated_peak == plan.row_bound == 2 ** 6 < plan.peak
    # each teleport is the identity from its data qubit to the Bell share it keeps
    assert len(contracted) == 6
    for gadget, data, _ in contracted:
        (outcomes, u, count, p), = gadget.groups
        assert (outcomes, count, len(data)) == ((0, 0), 4, 1)
        assert abs(p - 1) <= 1e-15 and np.abs(u - np.eye(2)).max() <= 1e-15
        assert gadget.out == ((-2, 2),)  # the resource's second share


def _teleport_all_variants():
    circuit = catalog.gcz(6, 2, "teleport_all")
    return [(i, DistCircuit(circuit.layout, circuit.instructions[:i]
                            + circuit.instructions[i + 1:], circuit.inputs, circuit.outputs))
            for i, ins in enumerate(circuit.instructions) if ins.kind == "CondGate"]


VARIANTS = _teleport_all_variants()  # (the dropped CondGate's index, the variant)


@pytest.mark.parametrize("drop,variant", VARIANTS, ids=[f"-#{i}" for i, _ in VARIANTS])
def test_a_teleport_with_a_dropped_correction_twists_by_weyl_operators(drop, variant,
                                                                       contracted):
    plan = compile_plan(variant)
    assert len(plan.gadgets) == 6 and len(contracted) == 6, drop
    for gadget, _, _ in contracted:
        assert all(_is_weyl(u, [2]) for _, u, _, _ in gadget.groups), drop
    twisted = [gadget for gadget, _, _ in contracted if len(gadget.groups) > 1]
    assert len(twisted) == 1, drop  # the teleport whose correction was dropped
    assert any(np.abs(u - np.eye(2)).max() <= 1e-12 for _, u, _, _ in twisted[0].groups), drop
    state = _batch(variant, k=2)
    for merge in (False, True):
        got = enumerate_branches(variant, state, merge_equal=merge)
        _assert_same_branches(got, enumerate_reference(variant, state, merge),
                              f"-#{drop} merge={merge}", True)


def _teleport(*before) -> DistCircuit:
    """Qubit s teleported from node A to its share t of a Bell pair, after the ``before``
    instructions; the inputs are b, s and c, with b and c left as they are."""
    layout = NodeLayout(("A", "B"), {"b": "A", "s": "A", "c": "B", "e": "A", "t": "B"})
    return DistCircuit(layout, (
        Instruction("CreateBell", ("e", "t"), parties=("A", "B")),
        *before,
        Instruction("LocalGate", ("s", "e"), gate="CNOT"),
        Instruction("LocalGate", ("s",), gate="H"),
        Instruction("Measure", ("e",), outcome="m"),
        Instruction("Measure", ("s",), outcome="n"),
        Instruction("ClassicalSend", parties=("A", "B"), symbol="m"),
        Instruction("ClassicalSend", parties=("A", "B"), symbol="n"),
        Instruction("CondGate", ("t",), gate="X", condition=Condition(("m",))),
        Instruction("CondGate", ("t",), gate="Z", condition=Condition(("n",))),
    ), ("b", "s", "c"), ("b", "t", "c"))


@pytest.mark.parametrize("before,u", [
    ((), np.eye(2)),
    ((Instruction("LocalGate", ("s",), gate="H"),), gate_unitary("H").entries),
    # touches s, then b: S_in is (s, b) and S_out (b, t), a CZ between them
    ((Instruction("LocalGate", ("s", "b"), gate="CZ"),), gate_unitary("CZ").entries[[0, 2, 1, 3]])],
    ids=["identity", "dense", "two data labels"])
def test_a_teleport_moves_its_label(before, u, built):
    circuit = _teleport(*before)
    plan = compile_plan(circuit)
    assert plan.gadgets == ((0, len(circuit.instructions) - 1),)
    assert plan.labels == ("b", "c", "t")  # as the per-instruction steps leave them
    (gadget, _, axes, _), = built
    (_, got, _, _), = gadget.groups
    assert np.abs(got - u).max() <= 1e-15
    assert gadget.out == ((-2, 2),) if len(axes) == 1 else ((1, 2), (-2, 2))
    state = _batch(circuit)
    for merge in (False, True):
        _assert_same_branches(enumerate_branches(circuit, state, merge_equal=merge),
                              enumerate_reference(circuit, state, merge), f"merge={merge}", True)


def test_a_measured_data_label_the_gadget_never_touched_stays_explicit():
    # b is measured between the teleport's measurements; the gadget never touched it
    circuit = _teleport()
    ins = circuit.instructions
    untouched = DistCircuit(circuit.layout,
                            ins[:4] + (Instruction("Measure", ("b",), outcome="q"),) + ins[4:],
                            circuit.inputs, ("t", "c"))
    assert compile_plan(untouched).gadgets == ()
    state = _batch(untouched)
    for merge in (False, True):
        _assert_same_branches(enumerate_branches(untouched, state, merge_equal=merge),
                              enumerate_reference(untouched, state, merge), f"merge={merge}")


def test_a_teleport_on_a_sparse_branch_stays_explicit():
    # a GHZ state opened before the teleport and measured after it puts every branch on a
    # support, where a step that moves labels does not run
    circuit = _teleport()
    layout = NodeLayout(("A", "B", "C"), {**circuit.layout.placement,
                                          "g1": "A", "g2": "B", "g3": "C"})
    ghz = Instruction("CreateGHZ", ("g1", "g2", "g3"), parties=("A", "B", "C"))
    measures = tuple(Instruction("Measure", (g,), outcome=f"o{g}") for g in ("g1", "g2", "g3"))
    sparse = DistCircuit(layout, (ghz,) + circuit.instructions + measures, circuit.inputs,
                         circuit.outputs)
    plan = compile_plan(sparse)
    assert plan.gadgets == () and plan.row_bound < plan.simulated_peak
    dense = DistCircuit(layout, circuit.instructions + (ghz,) + measures, circuit.inputs,
                        circuit.outputs)
    assert compile_plan(dense).gadgets[0] == (0, len(circuit.instructions) - 1)
    state = _batch(sparse)
    for merge in (False, True):
        _assert_same_branches(enumerate_branches(sparse, state, merge_equal=merge),
                              enumerate_reference(sparse, state, merge), f"merge={merge}",
                              rowed=True)


@pytest.mark.parametrize("circuit", [DistCircuit(LAYOUT, PREFIX, ("a", "b"), ("a", "b")),
                                     _teleport()], ids=["teleported CZ", "teleport"])
def test_a_gadget_cut_by_upto_stays_explicit(circuit):
    state = _batch(circuit)
    end = len(circuit.instructions)
    for upto in range(end):
        plan = compile_plan(circuit, upto)
        assert plan.gadgets == (), upto
        # one step per instruction; a send whose key changes nothing gets none
        sends = [ins.kind for ins in circuit.instructions[:upto]].count("ClassicalSend")
        assert len(plan.steps) == upto - sends, upto
        got = enumerate_branches(circuit, state, merge_equal=True, upto=upto)
        _assert_same_branches(got, enumerate_reference(circuit, state, True, upto), upto)
    assert compile_plan(circuit, end).gadgets == ((0, end - 1),)


def test_a_condition_on_an_outer_symbol_stays_explicit():
    # a second teleported CZ whose last correction also reads the outcome r of a
    # data qubit measured before it
    layout = NodeLayout(("A", "B"), {"a": "A", "b": "B", "c": "A"})
    second = tuple(
        Instruction(ins.kind, tuple({"e1": "f1", "e2": "f2"}.get(t, t) for t in ins.targets),
                    gate=ins.gate, parties=ins.parties,
                    condition=ins.condition and Condition(
                        tuple({"m": "p", "n": "q"}[t] for t in ins.condition.terms)),
                    outcome=ins.outcome and {"m": "p", "n": "q"}[ins.outcome])
        for ins in PREFIX)
    last = second[-1]
    second = second[:-1] + (Instruction("CondGate", last.targets, gate=last.gate,
                                        condition=Condition(("q", "r"))),)
    circuit = DistCircuit(layout, PREFIX + (Instruction("Measure", ("c",), outcome="r"),)
                          + second, ("a", "b", "c"), ("a", "b"))
    plan = compile_plan(circuit)
    assert plan.gadgets == ((0, len(PREFIX) - 1),)  # the first contracts, the second not
    assert len(plan.steps) == 1 + 1 + len(second)
    state = _batch(circuit)
    for merge in (False, True):
        got = enumerate_branches(circuit, state, merge_equal=merge)
        _assert_same_branches(got, enumerate_reference(circuit, state, merge),
                              f"merge={merge}", True)


@pytest.mark.parametrize("name", ["dCNOT", "fanout local+3 remote", "dCSUM4",
                                  "dGMS n=3 fanout theta=pi/3", "dGCZ n=6/3 nodes fanout"])
def test_without_merging_every_record_is_its_own_branch(name):
    circuit = catalog.tagged("suite")[name].build()
    assert compile_plan(circuit).gadgets
    state = _batch(circuit)
    got = enumerate_branches(circuit, state, merge_equal=False)
    want = enumerate_reference(circuit, state, False)
    _assert_same_branches(got, want, name, True)
    assert all(br.weight == 1 for br in got)


def test_the_pairwise_gcz_gadgets_share_one_build(monkeypatch):
    # both caches start empty: one entry per gadget's own labels, one build for all
    contract = lru_cache(maxsize=None)(simulate._contract.__wrapped__)
    build = lru_cache(maxsize=None)(simulate._gadget.__wrapped__)
    monkeypatch.setattr(simulate, "_contract", contract)
    monkeypatch.setattr(simulate, "_gadget", build)
    plan = compile_plan(catalog.gcz(12, 6, "pairwise"))
    assert len(plan.gadgets) == 60 and contract.cache_info().misses == 60
    assert build.cache_info().misses == 1 and build.cache_info().hits == 59
    compile_plan(catalog.gcz(12, 6, "pairwise"))  # a fresh build of the circuit
    assert contract.cache_info().misses == 60 and build.cache_info().misses == 1


@pytest.mark.parametrize("case", CASES)
def test_a_bad_instruction_after_a_gadget_raises_before_any_build(case, monkeypatch):
    circuit, message = bad_circuit(case)

    def forbidden(*args):
        raise AssertionError("a gadget was built before the instruction checks")

    monkeypatch.setattr(simulate, "_contract", forbidden)
    with pytest.raises(ValueError, match=message):
        compile_plan(circuit)
    with pytest.raises(AssertionError, match="built before"):  # the valid prefix would build
        compile_plan(DistCircuit(LAYOUT, PREFIX, ("a", "b"), ("a", "b")))


def test_records_group_only_when_their_live_symbols_agree(built):
    # a later ClassicalSend still reads n, so the records with n = 0 and n = 1 stay apart
    send = Instruction("ClassicalSend", parties=("B", "A"), symbol="n",
                       condition=Condition(("n",)))
    circuit = DistCircuit(LAYOUT, PREFIX + (send,), ("a", "b"), ("a", "b"))
    plan = compile_plan(circuit)
    assert plan.gadgets == ((0, len(PREFIX) - 1),)
    (gadget, _, _, symbols), = built
    assert symbols == ("m", "n")
    assert [(outcomes, count) for outcomes, _, count, _ in gadget.groups] == [
        ((0, 0), 2), ((0, 1), 2)]
    state = _batch(circuit)
    for upto in (len(PREFIX), None):
        got = enumerate_branches(circuit, state, merge_equal=True, upto=upto)
        assert [br.weight for br in got] == ([2, 2] if upto else [4])
        _assert_same_branches(got, enumerate_reference(circuit, state, True, upto), upto, True)


def _measured_bell(gate: str) -> DistCircuit:
    """Bell(e1, e2), ``gate`` on (a, e1), both halves measured in Z, then Z^n on a."""
    layout = NodeLayout(("A", "B"), {"a": "A", "e1": "A", "e2": "B"})
    return DistCircuit(layout, (
        Instruction("CreateBell", ("e1", "e2"), parties=("A", "B")),
        Instruction("LocalGate", ("a", "e1"), gate=gate),
        Instruction("Measure", ("e1",), outcome="m"),
        Instruction("Measure", ("e2",), outcome="n"),
        Instruction("CondGate", ("a",), gate="Z", condition=Condition(("n",))),
    ), ("a",), ("a",))


def test_a_record_that_is_no_unitary_stays_explicit():
    # K_(m, n) = |m xor n><m xor n| / sqrt(2) up to Z^n: a projector, not c U
    circuit = _measured_bell("CNOT")
    assert compile_plan(circuit).gadgets == ()
    state = _batch(circuit)
    for merge in (False, True):
        got = enumerate_branches(circuit, state, merge_equal=merge)
        _assert_same_branches(got, enumerate_reference(circuit, state, merge), f"merge={merge}")


def test_a_record_that_never_occurs_stays_explicit():
    # e1 and e2 always agree: records (0, 1) and (1, 0) are pruned on every column, while
    # K_(0, 0) = I / sqrt(2) and K_(1, 1) = Z Z / sqrt(2) are unitaries up to scale
    circuit = _measured_bell("CZ")
    assert compile_plan(circuit).gadgets == ()
    state = _batch(circuit)
    got = enumerate_branches(circuit, state)
    assert [br.outcomes for br in got] == [(("m", 0), ("n", 0)), (("m", 1), ("n", 1))]
    for merge in (False, True):
        got = enumerate_branches(circuit, state, merge_equal=merge)
        _assert_same_branches(got, enumerate_reference(circuit, state, merge), f"merge={merge}")


def _gadget_keys(circuits) -> list[tuple]:
    """Every gadget key the plans of ``circuits`` build, in order of first use."""
    keys: dict = {}
    build = simulate._gadget

    def recording(key):
        keys.setdefault(key)
        return build(key)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(simulate, "_contract", simulate._contract.__wrapped__)  # no cache
        patch.setattr(simulate, "_gadget", recording)
        for circuit in circuits:
            compile_plan(circuit)
    return list(keys)


def test_merged_builds_group_as_the_record_builds_do():
    # every gadget with d_S^2 d_A <= 2^16 of the corpus, the suite, its dropped-correction
    # variants and the CLI shapes, against the record build (conftest.gadget_reference)
    circuits = [c for _, c in _everything()] + [build() for _, build in CLI_WIDE]
    keys = [key for key in _gadget_keys(circuits)
            if np.prod(key[0]) ** 2 * key[1] ** key[2] <= 2 ** 16]
    assert len(keys) >= 60
    past_the_old_budget = 0  # d_S^2 d_A over 2^12, which stayed explicit before
    for key in keys:
        got, want = simulate._gadget(key), gadget_reference(key)
        assert (got is None) == (want is None), key[:3]
        if got is None:
            continue
        past_the_old_budget += np.prod(key[0]) ** 2 * key[1] ** key[2] > 2 ** 12
        assert len(got.groups) == len(want), key[:3]
        for (outcomes, u, count, p), (w_outcomes, w_u, w_count, w_p) in zip(got.groups, want):
            assert (outcomes, count) == (w_outcomes, w_count), key[:3]
            assert abs(p - w_p) <= 1e-12, key[:3]
            assert np.abs(u - w_u).max() <= 1e-12, key[:3]
    assert past_the_old_budget > 0


def _weak_measurement(theta: float) -> DistCircuit:
    """A gadget whose records have complementary column weights: Bell(e1, e2); e2 measured
    and e1 reset by X^n; RX(theta) on e1 and CNOT(a, e1); e1 measured; RZ(-pi)^m on a.

    Record (n, m) has K = diag(cos, -i sin) (m = 0) or diag(sin, -i cos) (m = 1) of
    theta / 2, each over sqrt(2): the column probabilities are cos^2 and sin^2 of theta / 2,
    complementary, and the two records' columns renormalized are both S^dagger."""
    layout = NodeLayout(("A", "B"), {"a": "A", "e1": "A", "e2": "B"})
    return DistCircuit(layout, (
        Instruction("CreateBell", ("e1", "e2"), parties=("A", "B")),
        Instruction("Measure", ("e2",), outcome="n"),
        Instruction("ClassicalSend", parties=("B", "A"), symbol="n"),
        Instruction("CondGate", ("e1",), gate="X", condition=Condition(("n",))),
        Instruction("LocalGate", ("e1",), gate="H"),
        Instruction("LocalGate", ("e1",), gate="RZ", params=(theta,)),
        Instruction("LocalGate", ("e1",), gate="H"),
        Instruction("LocalGate", ("a", "e1"), gate="CNOT"),
        Instruction("Measure", ("e1",), outcome="m"),
        Instruction("CondGate", ("a",), gate="RZ", params=(-np.pi,), condition=Condition(("m",))),
    ), ("a",), ("a",))


def test_complementary_column_weights_are_refused(monkeypatch):
    circuit = _weak_measurement(2 * np.arccos(np.sqrt(0.8)))
    (key,) = _gadget_keys([circuit])
    flat = simulate._flat
    refused = []

    def spying(br, d_s):
        ok = flat(br, d_s)
        refused.append(not ok)
        return ok

    monkeypatch.setattr(simulate, "_flat", spying)
    assert simulate._gadget.__wrapped__(key) is None
    assert refused[-1]  # the measurement of e1 refused the build, before any final test
    assert gadget_reference(key) is None  # no record is a unitary
    monkeypatch.undo()
    assert compile_plan(circuit).gadgets == ()
    state = _batch(circuit)
    for merge in (False, True):
        got = enumerate_branches(circuit, state, merge_equal=merge)
        _assert_same_branches(got, enumerate_reference(circuit, state, merge), f"merge={merge}")
    assert len(enumerate_branches(circuit, state, merge_equal=True)) == 2  # m = 0, 1 apart


@pytest.mark.parametrize("cap", [16383, 16384])
def test_a_build_over_the_amplitude_cap_leaves_its_gadget_explicit(cap, monkeypatch):
    # the build of qudit GCZ n=6's GHZ gadget (d_S = 64, three parties of d = 4) holds at
    # most 16,384 amplitudes; its smaller gadget, (30, 43), fits under either cap
    entry = catalog.tagged("suite")["qudit GCZ n=6"]
    circuit = entry.build()
    inputs = random_inputs(circuit, 3, seed=2)
    want = verify(circuit, entry.make_oracle(), inputs)
    cap_builds(monkeypatch, cap)
    plan = compile_plan(circuit)
    assert plan.gadgets == (((3, 24), (30, 43)) if cap == 16384 else ((30, 43),))
    got = verify(circuit, entry.make_oracle(), inputs)
    assert got.passed and got.branches == want.branches
    assert abs(got.min_fidelity - want.min_fidelity) <= 1e-12
    state = _batch(circuit)
    _assert_same_branches(enumerate_branches(circuit, state, merge_equal=True),
                          enumerate_reference(circuit, state, True), f"cap={cap}", True)


def test_the_ghz7_build_stays_small_in_memory():
    circuit = catalog.gms(7, 7, np.pi / 3, "fanout")
    (key,) = [k for k in _gadget_keys([circuit]) if k[1:3] == (2, 7)]
    assert np.prod(key[0]) == 128
    simulate._gadget.__wrapped__(key)  # the gate caches warm
    gc.collect()
    tracemalloc.start()
    try:
        gadget = simulate._gadget.__wrapped__(key)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert gadget is not None and len(gadget.groups) == 1
    assert peak < 8 * 2 ** 20
