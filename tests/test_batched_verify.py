"""Batched branch enumeration: one pass per chunk of inputs, same verdicts."""

import importlib
import math

import numpy as np
import pytest
from conftest import builder_corpus
from test_acceptance import _protocol_suite

from distgates import (DistCircuit, GateRef, MixedRegister, NodeLayout, Unitary, backend,
                       build_dcontrol_u, enumerate_branches, peak_register_dim, simulate)
from distgates.simulate import MERGE_ATOL, _Branch, _merge
from distgates.verify import (OracleSpec, PhaseOracle, ProductOracle, basis_inputs,
                              oracle_gcz, random_inputs, verify)

verify_module = importlib.import_module("distgates.verify")  # the package attribute is the function

LAY_AB = NodeLayout(("A", "B"), {"c": "A", "t": "B"})


def _dropped_variants(circuit):
    for i, ins in enumerate(circuit.instructions):
        if ins.kind == "CondGate":
            kept = circuit.instructions[:i] + circuit.instructions[i + 1:]
            yield i, DistCircuit(circuit.layout, kept, circuit.inputs, circuit.outputs)


def _summary(reports):
    """(min fidelity, branches, inputs checked, failure set) over consecutive input lists."""
    failures, offset = set(), 0
    for report in reports:
        failures |= {(offset + f.input_index, f.outcomes) for f in report.failures}
        offset += report.inputs_checked
    return (min(r.min_fidelity for r in reports), sum(r.branches for r in reports),
            offset, failures)


def _assert_same(batched, single, name):
    assert abs(batched[0] - single[0]) <= 1e-12, name
    assert batched[1:] == single[1:], name


def _check_against_single_inputs(circuit, oracle, inputs, name):
    if isinstance(oracle, OracleSpec):
        oracle = oracle.unitary(len(circuit.inputs))
    batched = _summary([verify(circuit, oracle, inputs)])
    single = _summary([verify(circuit, oracle, [state]) for state in inputs])
    _assert_same(batched, single, name)
    return batched


def test_batched_verify_matches_one_input_at_a_time_on_suite():
    for name, circuit, oracle in _protocol_suite():
        inputs = basis_inputs(circuit) + random_inputs(circuit, 6, seed=31)
        worst = _check_against_single_inputs(circuit, oracle, inputs, name)[0]
        assert worst >= 1 - 1e-9, name


def test_batched_verify_matches_one_input_at_a_time_on_dropped_corrections():
    rng = np.random.default_rng(77)
    caught = 0
    for name, circuit, oracle in _protocol_suite():
        basis = basis_inputs(circuit)
        for index, corrupted in _dropped_variants(circuit):
            picks = rng.choice(len(basis), size=2, replace=False)
            inputs = [basis[i] for i in picks] + random_inputs(corrupted, 1, seed=index)
            summary = _check_against_single_inputs(corrupted, oracle, inputs,
                                                   f"{name} -#{index}")
            caught += summary[0] < 1 - 1e-3
    assert caught == 274


def test_chunked_verify_gives_the_same_report(monkeypatch):
    cases = [(name, circuit, oracle) for name, circuit, oracle in _protocol_suite()
             if name in ("dGCZ n=6/3 nodes fanout", "qudit GCZ n=4", "dCSUM4")]
    name, circuit, oracle = cases[0]
    cases += [(f"{name} -#{i}", c, oracle) for i, c in list(_dropped_variants(circuit))[:3]]
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].amps.shape[1])
        return enumerate_branches(*args, **kwargs)

    monkeypatch.setattr(verify_module, "enumerate_branches", counting)
    for name, circuit, oracle in cases:
        inputs = basis_inputs(circuit) + random_inputs(circuit, 7, seed=5)
        peak = peak_register_dim(circuit)
        monkeypatch.setenv("DISTGATES_MAX_DIM", str(len(inputs) * peak))
        calls.clear()
        whole = verify(circuit, oracle, inputs)
        assert calls == [len(inputs)], name
        monkeypatch.setenv("DISTGATES_MAX_DIM", str(3 * peak))
        calls.clear()
        chunked = verify(circuit, oracle, inputs)
        assert calls == [min(3, len(inputs) - s) for s in range(0, len(inputs), 3)]
        _assert_same(_summary([chunked]), _summary([whole]), name)
        assert [f.input_index for f in chunked.failures] == sorted(
            f.input_index for f in chunked.failures)


def test_over_cap_circuit_is_rejected_before_any_simulation(monkeypatch):
    circuit = builder_corpus()["gcz6_3n_fanout"]
    peak = peak_register_dim(circuit)

    def forbidden(*args, **kwargs):
        raise AssertionError("simulated an over-cap circuit")

    monkeypatch.setattr(backend, "apply_matrix", forbidden)
    monkeypatch.setattr(verify_module, "enumerate_branches", forbidden)
    monkeypatch.setattr(OracleSpec, "unitary", forbidden)
    for oracle_type in (PhaseOracle, ProductOracle, Unitary):
        monkeypatch.setattr(oracle_type, "apply", forbidden)
    monkeypatch.setenv("DISTGATES_MAX_DIM", str(peak - 1))
    state = random_inputs(circuit, 1)[0]
    with pytest.raises(ValueError, match=f"register dimension {peak} exceeds cap"):
        verify(circuit, OracleSpec("gcz"), [state])
    with pytest.raises(ValueError, match=f"register dimension {peak} exceeds cap"):
        verify(circuit, oracle_gcz(len(circuit.inputs)), [state])
    with pytest.raises(ValueError, match=f"register dimension {peak} exceeds cap"):
        enumerate_branches(circuit, state)
    monkeypatch.setenv("DISTGATES_MAX_DIM", str(peak))
    assert peak_register_dim(circuit, upto=0) < peak
    enumerate_branches(circuit, state, upto=0)


def test_peak_register_dim_is_the_largest_register_simulated(monkeypatch):
    seen = []

    def recording(a, b):
        out = simulate_tensor(a, b)
        seen.append(out.amps.shape[0])
        return out

    simulate_tensor = simulate.tensor
    monkeypatch.setattr(simulate, "tensor", recording)
    for name, circuit in builder_corpus().items():
        seen.clear()
        start = random_inputs(circuit, 1)[0]
        enumerate_branches(circuit, start, merge_equal=True)
        assert peak_register_dim(circuit) == max(seen + [start.amps.size]), name


def test_verify_with_no_inputs():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    report = verify(circuit, OracleSpec("cnot"), [])
    assert report.inputs_checked == 0 and report.branches == 0
    assert report.failures == [] and report.passed and report.min_fidelity == 1.0


def test_verify_rejects_inputs_over_other_subsystems():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    wrong = MixedRegister.basis(("t", "c"), (2, 2), (0, 0))
    with pytest.raises(ValueError, match="input 1"):
        verify(circuit, OracleSpec("cnot"), [basis_inputs(circuit)[0], wrong])


def test_batch_columns_are_the_single_input_branches():
    # without merging, the branches alive in column j are, in order, exactly
    # the branches of input j run alone
    circuit = builder_corpus()["dcsum4"]
    inputs = basis_inputs(circuit)[:5] + random_inputs(circuit, 3, seed=2)
    batch = MixedRegister(inputs[0].dims, np.stack([s.amps for s in inputs], axis=1),
                          inputs[0].labels)
    batched = enumerate_branches(circuit, batch)
    for j, state in enumerate(inputs):
        single = enumerate_branches(circuit, state)
        alive = [br for br in batched if br.alive[j]]
        assert [br.outcomes for br in alive] == [br.outcomes for br in single]
        for b, s in zip(alive, single):
            assert abs(b.probability[j] - s.probability) < 1e-12
            np.testing.assert_allclose(b.state.amps[:, j], s.state.amps, atol=1e-12)
        dead = [br for br in batched if not br.alive[j]]
        assert all(br.probability[j] == 0 and not br.state.amps[:, j].any() for br in dead)
        assert abs(sum(br.probability[j] for br in batched) - 1) < 1e-10


def _branch(amps, weight=1):
    state = MixedRegister._wrap((amps.shape[0],), amps, ("q",))
    k = amps.shape[1]
    return _Branch(state, np.full(k, 0.5), (), {}, weight, np.ones(k, dtype=bool))


@pytest.mark.parametrize("phase", [0.0, math.pi / 3, math.pi])
def test_merge_prefilter_keeps_pairs_within_tolerance(phase):
    rng = np.random.default_rng(4)
    amps = rng.standard_normal((4096, 3)) + 1j * rng.standard_normal((4096, 3))
    amps /= np.linalg.norm(amps, axis=0)
    shift = 0.9 * MERGE_ATOL * np.exp(1j * phase)
    merged = _merge([_branch(amps), _branch(amps + shift, weight=2)], ())
    assert len(merged) == 1 and merged[0].weight == 3
    np.testing.assert_array_equal(merged[0].prob, [1.0, 1.0, 1.0])

    apart = amps.copy()
    apart[17, 1] += 1.1 * MERGE_ATOL
    assert len(_merge([_branch(amps), _branch(apart)], ())) == 2


def test_merge_keeps_first_match_order():
    rng = np.random.default_rng(8)
    a, b = (rng.standard_normal((16, 2)) + 0j for _ in range(2))
    frontier = [_branch(a), _branch(b), _branch(a.copy()), _branch(b.copy()), _branch(a)]
    merged = _merge(frontier, ())
    assert merged == [frontier[0], frontier[1]]
    assert [br.weight for br in merged] == [3, 2]
