"""Batched branch enumeration: one pass per chunk of inputs, same verdicts."""

import importlib
import math

import numpy as np
import pytest
from conftest import merge_reference
from test_acceptance import _protocol_suite

from distgates import (DistCircuit, GateRef, MixedRegister, NodeLayout, Unitary, backend,
                       build_dcontrol_u, catalog, enumerate_branches, peak_register_dim, simulate,
                       steps)
from distgates.simulate import MAX_BRANCHES, MERGE_ATOL, _merge, unmerged_branch_bound
from distgates.steps import _Branch
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
        peak = simulate.compile_plan(circuit).row_bound  # the chunk width's rows
        assert peak_register_dim(circuit) >= peak, name
        monkeypatch.setattr(verify_module, "CHUNK_AMPLITUDES", len(inputs) * peak)
        calls.clear()
        whole = verify(circuit, oracle, inputs)
        assert calls == [len(inputs)], name
        monkeypatch.setattr(verify_module, "CHUNK_AMPLITUDES", 3 * peak)
        calls.clear()
        chunked = verify(circuit, oracle, inputs)
        assert calls == [min(3, len(inputs) - s) for s in range(0, len(inputs), 3)]
        _assert_same(_summary([chunked]), _summary([whole]), name)
        assert [f.input_index for f in chunked.failures] == sorted(
            f.input_index for f in chunked.failures)


def test_over_cap_circuit_is_rejected_before_any_simulation(monkeypatch):
    circuit = catalog.tagged("corpus")["gcz6_3n_fanout"].build()
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


def test_register_cap_does_not_set_the_chunk_width(monkeypatch):
    # DISTGATES_MAX_DIM bounds one input's register; the chunk width is CHUNK_AMPLITUDES's
    # over the most rows a branch holds, which is under the register here
    entry = catalog.tagged("corpus")["qudit_gcz6"]
    circuit, oracle = entry.build(), entry.oracle
    peak = peak_register_dim(circuit)
    rows = simulate.compile_plan(circuit).row_bound
    assert rows < peak
    width = max(1, verify_module.CHUNK_AMPLITUDES // rows)
    inputs = random_inputs(circuit, width + 36)  # two chunks
    widths = []

    def counting(*args, **kwargs):
        widths.append(args[1].amps.shape[1])
        return enumerate_branches(*args, **kwargs)

    monkeypatch.setattr(verify_module, "enumerate_branches", counting)
    expected = [min(width, len(inputs) - s) for s in range(0, len(inputs), width)]
    assert len(expected) > 1
    default = verify(circuit, oracle, inputs)
    assert widths == expected
    monkeypatch.setenv("DISTGATES_MAX_DIM", str(peak - 1))
    with pytest.raises(ValueError, match=f"register dimension {peak} exceeds cap"):
        verify(circuit, oracle, inputs)
    for cap in (peak, 2 ** 20):
        monkeypatch.setenv("DISTGATES_MAX_DIM", str(cap))
        widths.clear()
        assert verify(circuit, oracle, inputs).to_json() == default.to_json()
        assert widths == expected, cap


@pytest.mark.parametrize("name", ["gms4_pairwise", "gcz6_3n_pairwise"])
def test_unmerged_branch_budget_is_checked_before_any_simulation(monkeypatch, tmp_path, capsys,
                                                                 name):
    from distgates import serialize
    from distgates.cli import main
    circuit = catalog.tagged("corpus")[name].build()
    assert unmerged_branch_bound(circuit) == 2 ** 24 > MAX_BRANCHES

    def forbidden(*args, **kwargs):
        raise AssertionError("simulated a circuit over the branch budget")

    monkeypatch.setattr(backend, "apply_matrix", forbidden)
    monkeypatch.setattr(backend, "apply_rows", forbidden)
    for kernel in ("measure_amps", "measure_rows", "tensor_amps"):
        monkeypatch.setattr(steps, kernel, forbidden)
    with pytest.raises(ValueError, match=f"up to {2 ** 24} unmerged branches exceed the "
                                         f"limit {MAX_BRANCHES}; merging"):
        enumerate_branches(circuit, random_inputs(circuit, 1)[0])
    path = tmp_path / "c.json"
    path.write_text(serialize(circuit))
    for argv in (["simulate"], ["verify", "--oracle", "gcz", "--no-merge"]):
        assert main([argv[0], "--circuit", str(path), *argv[1:]]) == 2
        assert "merging equal branches avoids it" in capsys.readouterr().err
    # merging is not limited: the same call with merge_equal=True starts simulating
    with pytest.raises(AssertionError, match="over the branch budget"):
        enumerate_branches(circuit, random_inputs(circuit, 1)[0], merge_equal=True)


def test_corpus_circuits_under_the_branch_budget_are_unaffected():
    bounds = {name: unmerged_branch_bound(c) for name, c in catalog.circuits("corpus").items()}
    assert max(b for name, b in bounds.items() if not name.endswith("_pairwise")) <= 4096


def test_peak_register_dim_is_the_largest_register_simulated():
    # a branch on a support holds fewer rows than its register: both are recorded per step
    registers, rows = [], []

    def recording(step):
        def run(frontier, owned, merge):
            frontier = step(frontier, owned, merge)
            registers.extend(br.amps.shape[0] if br.rows is None else br.rows.size
                             for br in frontier)
            rows.extend(br.amps.shape[0] for br in frontier)
            return frontier
        return run

    for name, circuit in catalog.circuits("corpus").items():
        registers.clear()
        rows.clear()
        start = random_inputs(circuit, 1)[0]
        plan = simulate.compile_plan(circuit)
        steps = tuple((step and recording(step), live) for step, live in plan.steps)
        enumerate_branches(circuit, start, merge_equal=True, plan=plan._replace(steps=steps))
        simulated = plan.simulated_peak  # contracted gadgets grow none
        assert simulated == max(registers + [start.amps.size]), name
        assert peak_register_dim(circuit) >= simulated, name
        assert plan.row_bound >= max(rows + [start.amps.size]), name


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
    circuit = catalog.tagged("corpus")["dcsum4"].build()
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
    k = amps.shape[1]
    return _Branch(amps, np.full(k, 0.5), (), {}, weight, np.ones(k, dtype=bool))


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


@pytest.mark.parametrize("rows", [8, 256, 2048])
def test_merge_is_the_plain_first_match_scan(rows):
    # two columns; near copies differ by 0.9 MERGE_ATOL (they merge) or by 1.1 MERGE_ATOL
    # in one amplitude (they do not), in a shuffled order
    rng = np.random.default_rng(rows)
    bases = [rng.standard_normal((rows, 2)) + 1j * rng.standard_normal((rows, 2))
             for _ in range(3)]
    variants = []
    for base in bases:
        base /= np.linalg.norm(base, axis=0)
        for i in range(4):
            # shifted per amplitude, or by one phase per column
            near = base + 0.9 * MERGE_ATOL * np.exp(2j * np.pi * rng.random(base.shape[i % 2:]))
            apart = base.copy()
            apart[rng.integers(rows), rng.integers(2)] += 1.1 * MERGE_ATOL * 1j ** rng.integers(4)
            variants += [base.copy(), near, apart]
    drawn = [(i, rng.random(2), {"s": int(rng.integers(2)), "t": int(rng.integers(2))},
              np.array([True, rng.random() > 0.2]), int(rng.integers(1, 4)))
             for i in rng.permutation(len(variants))]
    # a merge key spec and the same key for merge_reference: the value of s, the parity of s, t
    for spec, keys in ((((("s",), 2),), [(("s",), 2)]), (((("s", "t"), 2),), [(("s", "t"), 2)])):
        frontier, reference = [], []
        for i, prob, values, alive, weight in drawn:
            outcomes = (("i", int(i)),)
            frontier.append(_Branch(variants[i], prob, outcomes, values, weight, alive))
            reference.append([MixedRegister._wrap((rows,), variants[i], ("r",)), prob, outcomes,
                              values, weight, alive])
        merged = _merge(frontier, spec)
        want = merge_reference(reference, keys)
        assert len(frontier) > len(merged) > 3 * len(bases)
        assert [br.outcomes for br in merged] == [w[2] for w in want]
        assert [br.weight for br in merged] == [w[4] for w in want]
        assert [br.prob.tobytes() for br in merged] == [w[1].tobytes() for w in want]
