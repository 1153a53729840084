"""Gadget contraction: each teleported gate or fan-out runs as one step of per-outcome unitaries."""

import itertools
from functools import lru_cache

import numpy as np
import pytest
from conftest import enumerate_reference
from test_simulate_plan import BAD, LAYOUT, PREFIX, _assert_same_branches

from distgates import (Condition, DistCircuit, Instruction, MixedRegister, NodeLayout, catalog,
                       enumerate_branches, simulate)
from distgates.gates import gate_unitary, shift_matrix
from distgates.simulate import compile_plan
from distgates.verify import random_inputs

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

    def recording(gadget, dims, axes, symbols, rowed=False):
        steps.append((gadget, dims, axes, symbols))
        return real(gadget, dims, axes, symbols, rowed)

    monkeypatch.setattr(simulate, "_gadget_step", recording)
    return steps


def _batch(circuit, k=3, seed=5):
    inputs = random_inputs(circuit, k, seed=seed)
    return MixedRegister(inputs[0].dims, np.stack([s.amps for s in inputs], axis=1),
                         inputs[0].labels)


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
    plan = compile_plan(circuit)
    assert plan.gadgets == ((0, len(circuit.instructions) - 1),)
    (gadget, dims, axes, symbols), = built
    assert [circuit.inputs[a] for a in axes] == list(data)
    assert len(gadget.groups) == 1 and gadget.groups[0][:2] == (0, len(gadget.records))
    assert abs(gadget.groups[0][2] - 1) <= 1e-15
    for _, index, p in gadget.records:
        assert np.abs(gadget.unitaries[index] - gate_unitary(gate).entries).max() <= 1e-15
        assert abs(p - 1 / len(gadget.records)) <= 1e-15
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
        twists = [g.conj().T @ gadget.unitaries[index] for _, index, _ in gadget.records]
        assert all(_is_weyl(e, [dims[a] for a in axes]) for e in twists), drop
        assert len(gadget.groups) > 1, drop  # the twisted records do not merge
        assert any(np.abs(e - np.eye(len(e))).max() <= 1e-12 for e in twists), drop
        got = enumerate_branches(variant, _batch(variant), merge_equal=True)
        _assert_same_branches(got, enumerate_reference(variant, _batch(variant), True),
                              f"{name} -#{drop}", True)


def test_teleport_all_stays_explicit():
    circuit = catalog.gcz(6, 2, "teleport_all")  # it measures a data qubit
    plan = compile_plan(circuit)
    assert plan.gadgets == () and plan.simulated_peak == plan.peak


def test_a_gadget_cut_by_upto_stays_explicit():
    circuit = DistCircuit(LAYOUT, PREFIX, ("a", "b"), ("a", "b"))
    state = _batch(circuit)
    for upto in range(len(PREFIX)):
        plan = compile_plan(circuit, upto)
        assert plan.gadgets == () and len(plan.steps) == upto, upto
        got = enumerate_branches(circuit, state, merge_equal=True, upto=upto)
        _assert_same_branches(got, enumerate_reference(circuit, state, True, upto), upto)
    assert compile_plan(circuit, len(PREFIX)).gadgets == ((0, len(PREFIX) - 1),)


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


@pytest.mark.parametrize("case", sorted(BAD))
def test_a_bad_instruction_after_a_gadget_raises_before_any_build(case, monkeypatch):
    bad, message = BAD[case]
    circuit = DistCircuit(LAYOUT, PREFIX + (bad,), ("a", "b"), ("a", "b"))

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
    firsts = [gadget.records[r][0] for r, _, _ in gadget.groups]
    assert [(rec, count) for rec, (_, count, _) in zip(firsts, gadget.groups)] == [
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
