"""Fused runs: a run of steps that each apply one diagonal or monomial map to every dense
branch runs as one step, and gives the branches of the plan that runs each step on its own."""

import math

import numpy as np
import pytest
from conftest import enumerate_reference, no_fusion
from test_sparse_rows import CLI_WIDE, _batch, _everything

from distgates import NodeLayout, catalog, enumerate_branches, steps
from distgates.circuit import CircuitBuilder
from distgates.qubit_protocols import _fanout
from distgates.simulate import compile_plan, unmerged_branch_bound

UNMERGED_BRANCHES = 64  # unmerged runs are compared where they fork at most this many


def _assert_equal_branches(got, want, name):
    """Records, weights, alive masks and probabilities exactly, amplitudes within 1e-15."""
    assert [br.outcomes for br in got] == [br.outcomes for br in want], name
    assert [br.weight for br in got] == [br.weight for br in want], name
    for g, w in zip(got, want):
        np.testing.assert_array_equal(g.alive, w.alive, err_msg=name)
        np.testing.assert_array_equal(g.probability, w.probability, err_msg=name)
        assert g.state.amps.shape == w.state.amps.shape, name
        assert np.abs(g.state.amps - w.state.amps).max() <= 1e-15, name


def _cases():
    return _everything() + [(name, build()) for name, build in CLI_WIDE]


def test_fused_plans_match_the_plans_without_fusion(monkeypatch):
    cases = [(name, circuit, compile_plan(circuit)) for name, circuit in _cases()]
    cases = [case for case in cases if case[2].fused]
    assert len(cases) > 250
    unmerged = 0
    no_fusion(monkeypatch)
    for name, circuit, plan in cases:
        batch = _batch(circuit, 3, seed=7)
        want = compile_plan(circuit)
        assert want.fused == ()
        for merge in (True, False):
            if not merge and unmerged_branch_bound(circuit) > UNMERGED_BRANCHES:
                continue
            unmerged += not merge
            label = f"{name} merge={merge}"
            got = enumerate_branches(circuit, batch, merge_equal=merge, plan=plan)
            ref = enumerate_branches(circuit, batch, merge_equal=merge, plan=want)
            _assert_equal_branches(got, ref, label)
            if not merge:  # the fused steps run their members' own steps
                for g, w in zip(got, ref):
                    np.testing.assert_array_equal(g.state.amps, w.state.amps, err_msg=label)
    assert unmerged >= 50, unmerged


def _rz_chain(reps: int):
    """Over q0, q1, q2 on three nodes, ``reps`` times: RZ(pi/3) on each qubit, a teleported CZ
    from q0 to q1 and a teleported controlled RZ(pi/3) from q1 to q2. Every step is diagonal,
    and the phases do not compose exactly."""
    layout = NodeLayout(("A", "B", "C"), {"q0": "A", "q1": "B", "q2": "C"})
    b = CircuitBuilder(layout)
    for _ in range(reps):
        for q in ("q0", "q1", "q2"):
            b.gate("RZ", (q,), (math.pi / 3,))
        _fanout(b, "q0", [("q1", "Z", ())], 2)
        _fanout(b, "q1", [("q2", "RZ", (math.pi / 3,))], 2)
    return b.build(("q0", "q1", "q2"))


def test_a_chain_of_inexact_phases_stays_within_the_bound(monkeypatch):
    circuit = _rz_chain(12)
    plan = compile_plan(circuit)
    assert len(plan.steps) == 1 and plan.fused == ((0, len(circuit.instructions) - 1),)
    assert len(plan.gadgets) == 24
    batch = _batch(circuit, 4, seed=2)
    got = enumerate_branches(circuit, batch, merge_equal=True, plan=plan)
    no_fusion(monkeypatch)
    want = enumerate_branches(circuit, batch, merge_equal=True)
    _assert_equal_branches(got, want, "RZ chain")
    assert np.abs(got[0].state.amps - want[0].state.amps).max() > 0  # the phases do round
    ref = enumerate_reference(circuit, batch, True)
    assert np.abs(got[0].state.amps - ref[0][2].amps).max() <= 1e-14


@pytest.mark.parametrize("name", ["gcz n=12/6 pairwise", "gcz n=10/5 pairwise",
                                  "gcz n=9/3 fanout", "qudit gcz n=6/3"])
def test_the_wide_gcz_plans_are_one_step(name):
    circuit = dict(CLI_WIDE)[name]()
    plan = compile_plan(circuit)
    assert len(plan.steps) == 1, name
    assert plan.fused == ((0, len(circuit.instructions) - 1),), name
    assert plan.steps[0][1] is not None  # the merge of its last gadget


def test_composed_kernels_are_kept_once_and_bounded(monkeypatch):
    rows = steps._RowCache(2 ** 17)  # room for two 12-qubit phase vectors
    monkeypatch.setattr(steps, "_ROWS", rows)
    compile_plan(catalog.gcz(12, 6, "pairwise"))
    held = list(rows.entries)
    assert [key[0] for key in held] == ["fused"]
    compile_plan(catalog.gcz(12, 6, "pairwise"))  # another circuit object, the same steps
    assert list(rows.entries) == held
    fused = 0
    for _, circuit in _everything():
        fused += len(compile_plan(circuit).fused)
        assert rows.nbytes <= rows.limit
    assert fused > 300
    assert held[0] not in rows.entries  # dropped for later plans; only built again
    plan = compile_plan(catalog.gcz(12, 6, "pairwise"))
    circuit = plan.circuit
    batch = _batch(circuit, 2, seed=1)
    no_fusion(monkeypatch)
    _assert_equal_branches(enumerate_branches(circuit, batch, merge_equal=True, plan=plan),
                           enumerate_branches(circuit, batch, merge_equal=True), "rebuilt")
