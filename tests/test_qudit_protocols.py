"""Qudit protocols: pair encoding, teleported CSUM_4 / CZ_4 powers, multitarget
fan-out, and the qudit-compressed distributed GCZ."""

import math

import numpy as np
import pytest
from conftest import digits_of, gcz_phase, kron_embed, qudit_gcz_local_pair

from distgates import (MixedRegister, NodeLayout, QuditEncoding, apply_unitary,
                       build_dcsum4, build_dcsum4_multitarget, build_dcz4_pow,
                       build_qudit_gcz, catalog, decode, encode, enumerate_branches,
                       fidelity_up_to_phase, random_register, tally, validate)
from distgates.gates import cz4_sq_matrix, gate_unitary, level_swap_matrix
from distgates.statevec import Unitary
from distgates.verify import (OracleSpec, basis_inputs, oracle_gcz, random_inputs,
                              verify)

QLAY2 = NodeLayout(("n1", "n2"), {"Q1": "n1", "Q2": "n2"})
QLAY3 = NodeLayout(("n1", "n2", "n3"), {"Q1": "n1", "Q2": "n2", "Q3": "n3"})
ENC2 = QuditEncoding((("q1", "q2"), ("q3", "q4")), ("Q1", "Q2"))


# ---------------------------------------------------------------------------
# encoding
# ---------------------------------------------------------------------------

def test_encode_basis_pairs():
    state = MixedRegister.basis(("q1", "q2", "q3", "q4"), (2,) * 4, (1, 1, 1, 0))
    encoded = encode(state, ENC2)
    assert encoded.dims == (4, 4) and encoded.labels == ("Q1", "Q2")
    assert abs(encoded.amps[4 * 3 + 2] - 1) < 1e-15  # |11>|10> -> |3>|2>
    zero = encode(MixedRegister.basis(("q1", "q2"), (2, 2), (0, 0)),
                  QuditEncoding((("q1", "q2"),), ("Q1",)))
    assert abs(zero.amps[0] - 1) < 1e-15


def test_decode_inverts_encode():
    rng = np.random.default_rng(13)
    for _ in range(5):
        state = random_register(("q1", "q2", "q3", "q4"), (2,) * 4, rng)
        back = decode(encode(state, ENC2), ENC2)
        np.testing.assert_array_equal(back.amps, state.amps)
        assert back.labels == state.labels


def test_encode_errors():
    state = MixedRegister.basis(("q1", "q2", "q3"), (2,) * 3, (0,) * 3)
    with pytest.raises(ValueError, match="cover"):
        encode(state, ENC2)
    qudit = MixedRegister.basis(("q1", "q2"), (2, 4), (0, 0))
    with pytest.raises(ValueError, match="not a qubit"):
        encode(qudit, QuditEncoding((("q1", "q2"),), ("Q1",)))


# ---------------------------------------------------------------------------
# local two-qudit GCZ sequence
# ---------------------------------------------------------------------------

def _apply_sequence(state):
    for name, slots in qudit_gcz_local_pair():
        labels = tuple(state.labels[s] for s in slots)
        state = apply_unitary(state, gate_unitary(name), labels)
    return state


def test_local_pair_sequence_phases_all_basis():
    for idx in range(16):
        bits = [(idx >> (3 - p)) & 1 for p in range(4)]
        state = MixedRegister.basis(("Q1", "Q2"), (4, 4),
                                    (2 * bits[0] + bits[1], 2 * bits[2] + bits[3]))
        out = _apply_sequence(state)
        flat = int(np.argmax(np.abs(out.amps)))
        assert flat == (2 * bits[0] + bits[1]) * 4 + (2 * bits[2] + bits[3])
        assert abs(out.amps[flat] - (-1.0) ** gcz_phase(bits)) < 1e-12


def test_local_pair_sequence_minus_on_1100():
    state = MixedRegister.basis(("Q1", "Q2"), (4, 4), (3, 0))  # |1100>
    out = _apply_sequence(state)
    assert abs(out.amps[12] + 1) < 1e-12
    zero = _apply_sequence(MixedRegister.basis(("Q1", "Q2"), (4, 4), (0, 0)))
    assert abs(zero.amps[0] - 1) < 1e-12


def test_local_pair_sequence_commutes_with_encoding():
    rng = np.random.default_rng(23)
    gcz4 = oracle_gcz(4)
    for _ in range(50):
        psi = random_register(("q1", "q2", "q3", "q4"), (2,) * 4, rng)
        via_qubits = encode(apply_unitary(psi, gcz4, psi.labels), ENC2)
        via_qudits = _apply_sequence(encode(psi, ENC2))
        assert fidelity_up_to_phase(via_qubits, via_qudits) > 1 - 1e-12


# ---------------------------------------------------------------------------
# teleported CSUM_4: protocol stages and end-to-end behavior
# ---------------------------------------------------------------------------

def _stage_index(circuit, predicate):
    for i, ins in enumerate(circuit.instructions):
        if predicate(ins):
            return i + 1  # upto is exclusive
    raise AssertionError("stage not found")


def test_dcsum4_stage_states_all_basis():
    circuit = build_dcsum4("Q1", "Q2", QLAY2)
    after_pair = _stage_index(circuit, lambda i: i.kind == "CreateQuditPair")
    after_csum_dag = _stage_index(circuit, lambda i: i.gate == "CSUM4_dag")
    after_k4 = _stage_index(circuit, lambda i: i.gate == "K4")
    after_shift = _stage_index(circuit, lambda i: i.kind == "CondGate" and i.gate == "X4")
    after_csum = _stage_index(circuit, lambda i: i.gate == "CSUM4")
    for j in range(4):
        for l in range(4):
            start = MixedRegister.basis(("Q1", "Q2"), (4, 4), (j, l))

            # shared pair: amplitude 1/2 on |j, l, k, k>
            (branch,) = enumerate_branches(circuit, start, upto=after_pair)
            for idx in np.flatnonzero(np.abs(branch.state.amps) > 1e-12):
                d = digits_of(int(idx), (4, 4, 4, 4))
                assert d[0] == j and d[1] == l and d[2] == d[3]
                assert abs(branch.state.amps[idx] - 0.5) < 1e-12

            # inverse sum onto the share: E1 = (k - j) mod 4
            (branch,) = enumerate_branches(circuit, start, upto=after_csum_dag)
            for idx in np.flatnonzero(np.abs(branch.state.amps) > 1e-12):
                d = digits_of(int(idx), (4, 4, 4, 4))
                assert d[2] == (d[3] - j) % 4

            # complement: E1 = (j - k) mod 4
            (branch,) = enumerate_branches(circuit, start, upto=after_k4)
            for idx in np.flatnonzero(np.abs(branch.state.amps) > 1e-12):
                d = digits_of(int(idx), (4, 4, 4, 4))
                assert d[2] == (j - d[3]) % 4

            # after the conditioned shift every branch holds |j, l, j>
            branches = enumerate_branches(circuit, start, upto=after_shift)
            assert len(branches) == 4
            for b in branches:
                assert abs(b.probability - 0.25) < 1e-12
                expected = MixedRegister.basis(("Q1", "Q2", "E0_n2"), (4, 4, 4), (j, l, j))
                assert fidelity_up_to_phase(b.state, expected) > 1 - 1e-12

            # receiver sum: |j, (j + l) mod 4, j>
            for b in enumerate_branches(circuit, start, upto=after_csum):
                expected = MixedRegister.basis(("Q1", "Q2", "E0_n2"), (4, 4, 4),
                                               (j, (j + l) % 4, j))
                assert fidelity_up_to_phase(b.state, expected) > 1 - 1e-12

            # full protocol: amplitude exactly 1 on |j, (j + l) mod 4>
            branches = enumerate_branches(circuit, start)
            assert len(branches) == 16
            for b in branches:
                flat = j * 4 + (j + l) % 4
                assert abs(b.state.amps[flat] - 1) < 1e-9


def test_dcsum4_worked_examples():
    circuit = build_dcsum4("Q1", "Q2", QLAY2)
    assert tally(circuit).ep_d == {4: 1}
    start = MixedRegister.basis(("Q1", "Q2"), (4, 4), (2, 3))
    expected = MixedRegister.basis(("Q1", "Q2"), (4, 4), (2, 1))
    for b in enumerate_branches(circuit, start):
        assert fidelity_up_to_phase(b.state, expected) > 1 - 1e-9

    zero_ctrl = MixedRegister.basis(("Q1", "Q2"), (4, 4), (0, 3))
    for b in enumerate_branches(circuit, zero_ctrl):
        assert fidelity_up_to_phase(b.state, zero_ctrl) > 1 - 1e-9

    amps = np.zeros(16, dtype=complex)
    amps[0] = 1 / math.sqrt(2)   # (|0> + |1>) / sqrt 2 on Q1, |0> on Q2
    amps[4] = 1 / math.sqrt(2)
    sup = MixedRegister((4, 4), amps, ("Q1", "Q2"))
    bell = np.zeros(16, dtype=complex)
    bell[0] = bell[5] = 1 / math.sqrt(2)
    expected = MixedRegister((4, 4), bell, ("Q1", "Q2"))
    branches = enumerate_branches(circuit, sup)
    assert len(branches) == 16
    for b in branches:
        assert fidelity_up_to_phase(b.state, expected) > 1 - 1e-9


def test_dcsum4_rejects_co_located():
    layout = NodeLayout(("n1",), {"Q1": "n1", "Q2": "n1"})
    with pytest.raises(ValueError, match="share a node"):
        build_dcsum4("Q1", "Q2", layout)


def test_dcsum4_matches_oracle_on_random_states():
    circuit = build_dcsum4("Q1", "Q2", QLAY2)
    rep = verify(circuit, OracleSpec("csum4"), random_inputs(circuit, 10))
    assert rep.min_fidelity > 1 - 1e-9


# ---------------------------------------------------------------------------
# teleported CZ_4 powers
# ---------------------------------------------------------------------------

def test_dcz4_squared_on_33():
    circuit = build_dcz4_pow("Q1", "Q2", 2, QLAY2)
    start = MixedRegister.basis(("Q1", "Q2"), (4, 4), (3, 3))
    for b in enumerate_branches(circuit, start):
        assert abs(b.state.amps[15] + 1) < 1e-9  # (-1)^(3*3)


def test_dcz4_phase_on_11():
    circuit = build_dcz4_pow("Q1", "Q2", 1, QLAY2)
    start = MixedRegister.basis(("Q1", "Q2"), (4, 4), (1, 1))
    for b in enumerate_branches(circuit, start):
        assert abs(b.state.amps[5] - 1j) < 1e-9  # omega^(1*1) = i


def test_dcz4_sq_zero_control_unchanged():
    circuit = build_dcz4_pow("Q1", "Q2", 2, QLAY2)
    for k in range(4):
        start = MixedRegister.basis(("Q1", "Q2"), (4, 4), (0, k))
        for b in enumerate_branches(circuit, start):
            assert abs(b.state.amps[k] - 1) < 1e-9


def test_dcz4_pow_validation():
    with pytest.raises(ValueError, match="power"):
        build_dcz4_pow("Q1", "Q2", 3, QLAY2)


@pytest.mark.parametrize("power", [1, 2])
def test_dcz4_pow_matches_matrix_oracle(power):
    circuit = build_dcz4_pow("Q1", "Q2", power, QLAY2)
    assert tally(circuit).ep_d == {4: 1}
    rep = verify(circuit, OracleSpec("cz4" if power == 1 else "cz4_sq"),
                 basis_inputs(circuit) + random_inputs(circuit, 10))
    assert rep.min_fidelity > 1 - 1e-9


# ---------------------------------------------------------------------------
# multitarget fan-out
# ---------------------------------------------------------------------------

def test_multitarget_csum_basis_example():
    circuit = build_dcsum4_multitarget("Q1", ("Q2", "Q3"), QLAY3, "csum")
    assert tally(circuit).ghz_d == {(3, 4): 1}
    start = MixedRegister.basis(("Q1", "Q2", "Q3"), (4, 4, 4), (1, 0, 2))
    expected = MixedRegister.basis(("Q1", "Q2", "Q3"), (4, 4, 4), (1, 1, 3))
    for b in enumerate_branches(circuit, start):
        assert fidelity_up_to_phase(b.state, expected) > 1 - 1e-9


def test_multitarget_csum_zero_control():
    circuit = build_dcsum4_multitarget("Q1", ("Q2", "Q3"), QLAY3, "csum")
    start = MixedRegister.basis(("Q1", "Q2", "Q3"), (4, 4, 4), (0, 2, 3))
    for b in enumerate_branches(circuit, start):
        assert fidelity_up_to_phase(b.state, start) > 1 - 1e-9


def test_multitarget_cz4_sq_random_states_all_branches():
    # oracle: (CZ4)^2 on (Q1,Q2) times (CZ4)^2 on (Q1,Q3), both diagonal
    circuit = build_dcsum4_multitarget("Q1", ("Q2", "Q3"), QLAY3, "cz4_sq")
    rng = np.random.default_rng(31)
    sq = cz4_sq_matrix()
    m12 = np.kron(sq, np.eye(4, dtype=complex))
    diag13 = np.array([(-1.0) ** (digits_of(idx, (4, 4, 4))[0] * digits_of(idx, (4, 4, 4))[2])
                       for idx in range(64)])
    oracle = np.diag(diag13) @ m12
    state = random_register(("Q1", "Q2", "Q3"), (4, 4, 4), rng)
    branches = enumerate_branches(circuit, state)
    assert len(branches) == 64
    expected = MixedRegister((4, 4, 4), oracle @ state.amps, ("Q1", "Q2", "Q3"))
    for b in branches:
        assert fidelity_up_to_phase(b.state, expected) > 1 - 1e-9


def test_multitarget_rejects_co_located_target():
    layout = NodeLayout(("n1", "n2"), {"Q1": "n1", "Q2": "n1", "Q3": "n2"})
    with pytest.raises(ValueError, match="co-located"):
        build_dcsum4_multitarget("Q1", ("Q2", "Q3"), layout, "csum")


def test_multitarget_csum_matches_definition_oracle():
    circuit = build_dcsum4_multitarget("Q1", ("Q2", "Q3"), QLAY3, "csum")
    rep = verify(circuit, OracleSpec("csum4_multi"), random_inputs(circuit, 8))
    assert rep.min_fidelity > 1 - 1e-9


# ---------------------------------------------------------------------------
# qudit-compressed GCZ
# ---------------------------------------------------------------------------

def test_qudit_gcz4_decode_route():
    partition, enc, qubit_labels = catalog.qudit_layout(4, 2)
    circuit = build_qudit_gcz(4, partition, enc)
    assert tally(circuit).ep_d == {4: 1} and tally(circuit).ghz_d == {}
    rng = np.random.default_rng(41)
    gcz4 = oracle_gcz(4)
    for _ in range(50):
        psi = random_register(qubit_labels, (2,) * 4, rng)
        expected = apply_unitary(psi, gcz4, qubit_labels)
        for b in enumerate_branches(circuit, encode(psi, enc), merge_equal=True):
            decoded = decode(b.state, enc)
            assert fidelity_up_to_phase(decoded, expected) > 1 - 1e-9


def test_qudit_gcz6_tally_and_basis_phase():
    circuit = catalog.qudit_gcz(6, 3)
    t = tally(circuit)
    assert t.ghz_d == {(3, 4): 1} and t.ep_d == {4: 1}
    # |110000>: only the first intra-pair phase fires, so the sign is -1
    start = MixedRegister.basis(("Q1", "Q2", "Q3"), (4, 4, 4), (3, 0, 0))
    for b in enumerate_branches(circuit, start, merge_equal=True):
        assert abs(b.state.amps[3 * 16] + 1) < 1e-9


def test_qudit_gcz6_matches_encoded_oracle():
    circuit = catalog.qudit_gcz(6, 3)
    rep = verify(circuit, OracleSpec("qudit_gcz"), random_inputs(circuit, 5))
    assert rep.min_fidelity > 1 - 1e-9


def test_qudit_gcz_validation():
    partition, enc, _ = catalog.qudit_layout(4, 2)
    with pytest.raises(ValueError, match="even"):
        build_qudit_gcz(5, partition, enc)
    with pytest.raises(ValueError, match="cover"):
        build_qudit_gcz(6, partition, enc)


def test_inter_qudit_blocks_commute():
    # the conjugated (CZ4)^2 blocks are diagonal in the computational basis,
    # so the three of them (1-2, 1-3, 2-3) can run in any order
    x23 = level_swap_matrix(4, 2, 3)
    sq = cz4_sq_matrix()

    def block(i, j):
        conj = kron_embed(x23, i, 3, dim=4) @ kron_embed(x23, j, 3, dim=4)
        inner = np.eye(64, dtype=complex)
        diag = np.ones(64, dtype=complex)
        for idx in range(64):
            d = digits_of(idx, (4, 4, 4))
            diag[idx] = (-1.0) ** (d[i] * d[j])
        inner = np.diag(diag)
        return conj @ inner @ conj

    blocks = [block(0, 1), block(0, 2), block(1, 2)]
    for a in blocks:
        assert np.max(np.abs(a - np.diag(np.diag(a)))) < 1e-12  # diagonal
        for b in blocks:
            assert np.max(np.abs(a @ b - b @ a)) < 1e-12
    # sanity: sq really is the two-qudit diagonal each block embeds
    np.testing.assert_allclose(
        np.diag(sq), [(-1.0) ** (j * k) for j in range(4) for k in range(4)])


def test_qudit_circuits_validate_cleanly():
    for circuit in (build_dcsum4("Q1", "Q2", QLAY2),
                    build_dcz4_pow("Q1", "Q2", 2, QLAY2),
                    build_dcsum4_multitarget("Q1", ("Q2", "Q3"), QLAY3, "cz4_sq")):
        assert validate(circuit) == []
