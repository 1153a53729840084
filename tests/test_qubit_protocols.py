"""Distributed qubit protocols: teleported controlled gates, fan-out, GMS, GCZ."""

import math
from collections import Counter

import numpy as np
import pytest
from conftest import H, I2, X, expm_xx_sum, gcz_phase, kron_embed, old_order
from test_batched_verify import _dropped_variants

from distgates import (GateRef, GmsSpec, MixedRegister, NodeLayout, apply_unitary,
                       build_dcontrol_u, build_dgms, build_fanout, catalog, count_messages,
                       enumerate_branches, fidelity_up_to_phase, lms_matrix, random_register,
                       tally, validate)
from distgates.circuit import RESOURCE_KINDS
from distgates.gates import gate_unitary
from distgates.resources import GczConfig, gcz_costs
from distgates.simulate import compile_plan
from distgates.statevec import Unitary
from distgates.verify import OracleSpec, basis_inputs, random_inputs, verify

LAY_AB = NodeLayout(("A", "B"), {"c": "A", "t": "B"})


# ---------------------------------------------------------------------------
# two-qubit MS matrix
# ---------------------------------------------------------------------------

def test_lms_theta_zero_is_identity():
    np.testing.assert_allclose(lms_matrix(0.0).entries, np.eye(4))


def test_lms_half_pi_frozen_entries():
    # frozen from exp(-i pi/4 X(x)X): diagonal cos(pi/4), anti-diagonal -i sin(pi/4)
    c, s = 1 / math.sqrt(2), -1j / math.sqrt(2)
    expected = np.array([
        [c, 0, 0, s],
        [0, c, s, 0],
        [0, s, c, 0],
        [s, 0, 0, c]])
    np.testing.assert_allclose(lms_matrix(math.pi / 2).entries, expected, atol=1e-15)
    np.testing.assert_allclose(expm_xx_sum(2, math.pi / 2), expected, atol=1e-12)


@pytest.mark.parametrize("theta", [math.pi / 2, math.pi / 3, 0.41, -1.2])
def test_lms_matches_matrix_exponential(theta):
    np.testing.assert_allclose(lms_matrix(theta).entries, expm_xx_sum(2, theta), atol=1e-12)


def test_lms_inverse_pairs():
    prod = lms_matrix(0.77).entries @ lms_matrix(-0.77).entries
    np.testing.assert_allclose(prod, np.eye(4), atol=1e-12)


def test_cz_equals_clifford_conjugated_lms():
    sdg = gate_unitary("S_dag").entries
    h2 = np.kron(H, H)
    built = (np.exp(1j * math.pi / 4) * np.kron(sdg, sdg)
             @ h2 @ lms_matrix(math.pi / 2).entries @ h2)
    np.testing.assert_allclose(built, np.diag([1, 1, 1, -1]), atol=1e-12)


# ---------------------------------------------------------------------------
# teleported controlled-U
# ---------------------------------------------------------------------------

def test_dcnot_on_basis_input():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    state = MixedRegister.basis(("c", "t"), (2, 2), (1, 0))
    branches = enumerate_branches(circuit, state)
    assert len(branches) == 4
    expected = MixedRegister.basis(("c", "t"), (2, 2), (1, 1))
    for b in branches:
        assert abs(b.probability - 0.25) < 1e-12
        assert fidelity_up_to_phase(b.state, expected) > 1 - 1e-12


def test_dcnot_creates_bell_pair_from_plus():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    plus = apply_unitary(MixedRegister.basis(("c", "t"), (2, 2), (0, 0)),
                         gate_unitary("H"), ("c",))
    bell = MixedRegister((2, 2), np.array([1, 0, 0, 1]) / math.sqrt(2), ("c", "t"))
    for b in enumerate_branches(circuit, plus):
        assert fidelity_up_to_phase(b.state, bell) > 1 - 1e-12


def test_dcz_resource_and_messages():
    circuit = build_dcontrol_u("c", "t", GateRef("Z"), LAY_AB)
    assert tally(circuit).ep == 1
    assert count_messages(circuit) == 2
    assert validate(circuit) == []


def test_dcontrol_u_rejects_same_node():
    layout = NodeLayout(("A",), {"c": "A", "t": "A"})
    with pytest.raises(ValueError, match="share a node"):
        build_dcontrol_u("c", "t", GateRef("X"), layout)


def test_dcontrol_rz_matches_oracle():
    theta = math.pi / 3
    circuit = build_dcontrol_u("c", "t", GateRef("RZ", (theta,)), LAY_AB)
    crz = np.eye(4, dtype=complex)
    crz[2:, 2:] = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
    rep = verify(circuit, Unitary(crz, (2, 2)),
                 basis_inputs(circuit) + random_inputs(circuit, 10))
    assert rep.min_fidelity > 1 - 1e-9


# ---------------------------------------------------------------------------
# fan-out
# ---------------------------------------------------------------------------

def test_fanout_three_remote_targets_makes_ghz():
    layout = NodeLayout(("A", "B", "C", "D"),
                        {"c": "A", "t1": "B", "t2": "C", "t3": "D"})
    circuit = build_fanout("c", [(t, GateRef("X")) for t in ("t1", "t2", "t3")], layout)
    t = tally(circuit)
    assert t.ghz == {4: 1} and t.ep == 0
    plus = apply_unitary(MixedRegister.basis(("c", "t1", "t2", "t3"), (2,) * 4, (0,) * 4),
                         gate_unitary("H"), ("c",))
    ghz = np.zeros(16, dtype=complex)
    ghz[[0, 15]] = 1 / math.sqrt(2)
    expected = MixedRegister((2,) * 4, ghz, ("c", "t1", "t2", "t3"))
    branches = enumerate_branches(circuit, plus)
    assert len(branches) == 16
    for b in branches:
        assert fidelity_up_to_phase(b.state, expected) > 1 - 1e-12


@pytest.mark.parametrize("n_remote", [1, 2, 3, 4])
def test_fanout_resource_scaling(n_remote):
    # one (r+1)-party GHZ replaces r Bell pairs; r = 1 degenerates to one pair
    nodes = tuple(f"N{i}" for i in range(n_remote + 1))
    placement = {"c": "N0", **{f"t{i}": f"N{i}" for i in range(1, n_remote + 1)}}
    layout = NodeLayout(nodes, placement)
    circuit = build_fanout(
        "c", [(f"t{i}", GateRef("X")) for i in range(1, n_remote + 1)], layout)
    t = tally(circuit)
    if n_remote == 1:
        assert t.ep == 1 and t.ghz == {}
    else:
        assert t.ep == 0 and t.ghz == {n_remote + 1: 1}


def test_fanout_with_local_targets_shapes():
    # control node hosting targets drives them directly; GHZ only spans remotes
    layout = NodeLayout(("A", "B", "C"), {"c": "A", "t1": "A", "t2": "B", "t3": "C"})
    targets = [("t1", GateRef("X")), ("t2", GateRef("X")), ("t3", GateRef("X"))]
    circuit = build_fanout("c", targets, layout)
    assert tally(circuit).ghz == {3: 1}
    p0 = kron_embed(np.diag([1, 0]).astype(complex), 0, 4)
    p1 = kron_embed(np.diag([0, 1]).astype(complex), 0, 4)
    oracle = np.eye(16, dtype=complex)
    for pos in (1, 2, 3):  # control is subsystem 0
        oracle = (p0 + p1 @ kron_embed(X, pos, 4)) @ oracle
    rep = verify(circuit, Unitary(oracle, (2,) * 4),
                 basis_inputs(circuit) + random_inputs(circuit, 10))
    assert rep.min_fidelity > 1 - 1e-9


def test_fanout_requires_targets():
    with pytest.raises(ValueError, match="at least one target"):
        build_fanout("c", [], LAY_AB)


# ---------------------------------------------------------------------------
# distributed GMS
# ---------------------------------------------------------------------------

def test_dgms_resource_counts_n4():
    assert tally(catalog.gms(4, 4, math.pi / 2, "pairwise")).ep == 12
    assert tally(catalog.gms(4, 4, math.pi / 2, "pairwise_conditional")).ep == 6
    t = tally(catalog.gms(4, 4, math.pi / 2, "fanout"))
    assert t.ep == 1 and t.ghz == {4: 1, 3: 1}
    assert t.time_units == 3.0 and t.time_units < 12


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_dgms_fanout_ghz_arities(n):
    t = tally(catalog.gms(n, n, 0.3, "fanout"))
    assert t.ghz == {arity: 1 for arity in range(3, n + 1)}
    assert t.ep == 1


@pytest.mark.parametrize("strategy", ["pairwise", "pairwise_conditional", "fanout"])
def test_dgms_n3_branch_correctness(strategy):
    theta = math.pi / 2
    circuit = catalog.gms(3, 3, theta, strategy)
    oracle = Unitary(expm_xx_sum(3, theta), (2, 2, 2))
    rep = verify(circuit, oracle, basis_inputs(circuit) + random_inputs(circuit, 8))
    assert rep.min_fidelity > 1 - 1e-9, f"{strategy}: {rep.min_fidelity}"


def test_dgms_fanout_rejects_multi_qubit_nodes():
    layout = NodeLayout(("A", "B"), {"q1": "A", "q2": "A", "q3": "B"})
    with pytest.raises(ValueError, match="one qubit per node"):
        build_dgms(GmsSpec(("q1", "q2", "q3"), 0.5), layout, "fanout")


def test_gms_spec_validation():
    with pytest.raises(ValueError, match="at least 2"):
        GmsSpec(("q1",), 0.3)
    with pytest.raises(ValueError, match="distinct"):
        GmsSpec(("q1", "q1"), 0.3)


# ---------------------------------------------------------------------------
# distributed GCZ
# ---------------------------------------------------------------------------

def test_dgcz_counts_match_worked_examples():
    assert tally(catalog.gcz(6, 2, "fanout")).ep == 3
    assert tally(catalog.gcz(6, 2, "pairwise")).ep == 9
    assert tally(catalog.gcz(6, 2, "teleport_all")).ep == 6
    assert tally(catalog.gcz(6, 3, "pairwise")).ep == 12
    t3 = tally(catalog.gcz(6, 3, "fanout"))
    assert t3.ghz == {3: 2} and t3.ep == 2


def test_dgcz_two_qubits_one_pair():
    assert tally(catalog.gcz(2, 2, "pairwise")).ep == 1
    assert tally(catalog.gcz(2, 2, "fanout")).ep == 1
    # moving the single qubit there and back costs two pairs
    assert tally(catalog.gcz(2, 2, "teleport_all")).ep == 2


@pytest.mark.parametrize("D,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3),
                                 (4, 1), (4, 2), (4, 3)])
def test_dgcz_tally_matches_formulas(D, k):
    n = D * k
    costs = gcz_costs(GczConfig(n=n, D=D, k=k))
    assert tally(catalog.gcz(n, D, "pairwise")).ep == costs["pairwise"].ep
    t = tally(catalog.gcz(n, D, "fanout"))
    assert t.ep == costs["fanout"].ep
    assert t.total(ghz=True) == costs["fanout"].total(ghz=True) == n - 2 * k
    assert t.ghz == costs["fanout"].ghz


def test_dgcz_teleport_all_requires_two_nodes():
    with pytest.raises(ValueError, match="two occupied nodes"):
        catalog.gcz(6, 3, "teleport_all")


@pytest.mark.parametrize("nodes,strategy", [(4, "pairwise"), (4, "fanout"),
                                            (2, "teleport_all"), (2, "fanout")])
def test_dgcz_n4_branch_correctness(nodes, strategy):
    circuit = catalog.gcz(4, nodes, strategy)
    diag = np.array([(-1.0) ** gcz_phase([(i >> (3 - p)) & 1 for p in range(4)])
                     for i in range(16)])
    oracle = Unitary(np.diag(diag), (2,) * 4)
    rep = verify(circuit, oracle, basis_inputs(circuit) + random_inputs(circuit, 8))
    assert rep.min_fidelity > 1 - 1e-9, f"{strategy}: {rep.min_fidelity}"


# ---------------------------------------------------------------------------
# commutation structure
# ---------------------------------------------------------------------------

def test_cz_fanout_layers_commute():
    # the layered CZ groups of a 4-qubit global CZ are diagonal: zero commutators
    cz = np.diag([1, 1, 1, -1]).astype(complex)

    def embed_cz(i, j):
        out = np.zeros((16, 16), dtype=complex)
        for idx in range(16):
            bits = [(idx >> (3 - p)) & 1 for p in range(4)]
            out[idx, idx] = -1.0 if bits[i] & bits[j] else 1.0
        return out

    layer1 = embed_cz(0, 1) @ embed_cz(0, 2) @ embed_cz(0, 3)
    layer2 = embed_cz(1, 2) @ embed_cz(1, 3)
    layer3 = embed_cz(2, 3)
    for a, b in ((layer1, layer2), (layer1, layer3), (layer2, layer3)):
        assert np.max(np.abs(a @ b - b @ a)) < 1e-12


def test_first_lms_of_consecutive_fanouts_do_not_commute():
    # In the simplified fan-out circuit the opening H on each layer's control
    # is absorbed into its first MS slot: slot_i = H_i o LMS(i, i+1). For a
    # generic angle these slot operators fail to commute across layers.
    theta = math.pi / 3
    lms = lms_matrix(theta).entries
    slot1 = kron_embed(H, 0, 3) @ np.kron(lms, I2)
    slot2 = kron_embed(H, 1, 3) @ np.kron(I2, lms)
    comm = slot1 @ slot2 - slot2 @ slot1
    assert np.linalg.norm(comm) > 0.1
    # the bare MS factors themselves commute; the obstruction is the collapsed H
    bare1, bare2 = np.kron(lms, I2), np.kron(I2, lms)
    assert np.max(np.abs(bare1 @ bare2 - bare2 @ bare1)) < 1e-12


def test_branch_determinism_up_to_corrections():
    # gate teleportation: after corrections every branch holds the same state
    rng = np.random.default_rng(17)
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    state = random_register(("c", "t"), (2, 2), rng)
    branches = enumerate_branches(circuit, state)
    first = branches[0].state
    for b in branches[1:]:
        assert fidelity_up_to_phase(b.state, first) > 1 - 1e-10


# ---------------------------------------------------------------------------
# GHZ fan-out order: every remote share is shifted as soon as the control's outcome arrives
# ---------------------------------------------------------------------------

GOLDEN = catalog.tagged("golden")


def _ghz_resources(circuit):
    return [ins for ins in circuit.instructions
            if ins.kind in RESOURCE_KINDS and RESOURCE_KINDS[ins.kind][0]]


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_ghz_shifts_run_right_after_the_control_outcome_is_sent(shape):
    circuit = GOLDEN[shape].build()
    instructions = circuit.instructions
    for resource in _ghz_resources(circuit):
        control, *shares = resource.targets
        m0 = next(ins.outcome for ins in instructions
                  if ins.kind == "Measure" and ins.targets == (control,))
        sent = next(i for i, ins in enumerate(instructions)
                    if ins.kind == "ClassicalSend" and ins.symbol == m0)
        readers = [i for i, ins in enumerate(instructions)
                   if ins.kind == "CondGate" and m0 in ins.condition.terms]
        assert readers == list(range(sent + 1, sent + 1 + len(shares))), shape
        assert [instructions[i].targets for i in readers] == [(share,) for share in shares]


@pytest.mark.parametrize("shape", sorted(GOLDEN))
def test_old_order_changes_nothing_but_the_order(shape, monkeypatch):
    monkeypatch.setenv("DISTGATES_MAX_DIM", str(2 ** 20))  # plans of the over-cap entries too
    circuit = GOLDEN[shape].build()
    old = old_order(circuit)
    assert (old.instructions != circuit.instructions) == bool(_ghz_resources(circuit))
    assert Counter(old.instructions) == Counter(circuit.instructions)
    for schedule in ("serial", "layered"):
        assert tally(old, schedule=schedule) == tally(circuit, schedule=schedule)
    new_plan, old_plan = compile_plan(circuit), compile_plan(old)
    assert len(old_plan.gadgets) == len(new_plan.gadgets)
    assert old_plan.simulated_peak == new_plan.simulated_peak


@pytest.mark.parametrize("shape", ["gms5_fanout_pi_3", "gcz6_3n_fanout", "qudit_gcz6",
                                   "corpus_dcsum4_multi", "corpus_dcz4_sq_multi"])
def test_old_and_new_order_give_the_same_verdicts(shape):
    entry = GOLDEN[shape]
    circuit, oracle = entry.build(), entry.make_oracle()
    old = old_order(circuit)
    inputs = random_inputs(circuit, 4, seed=5)

    def same_verdicts(a, b):
        ra, rb = verify(a, oracle, inputs), verify(b, oracle, inputs)
        assert (ra.branches, ra.passed) == (rb.branches, rb.passed)
        assert abs(ra.min_fidelity - rb.min_fidelity) <= 1e-12
        return ra.passed

    assert same_verdicts(circuit, old)
    new_variants, old_variants = (
        {c.instructions[i]: variant for i, variant in _dropped_variants(c)} for c in (circuit, old))
    assert len(new_variants) == sum(ins.kind == "CondGate" for ins in circuit.instructions)
    assert new_variants.keys() == old_variants.keys()
    for dropped, variant in new_variants.items():
        assert not same_verdicts(variant, old_variants[dropped]), dropped
