"""Gate constructors: exact matrix actions and the qudit gate algebra."""

import numpy as np
import pytest

from distgates.gates import (WIRE_GATES, clock_dag_matrix, complement_matrix,
                             csum_matrix, czd_matrix, fourier_matrix, gate_power,
                             gate_unitary, level_swap_matrix, rz_matrix,
                             shift_matrix)


@pytest.mark.parametrize("name", sorted(WIRE_GATES))
def test_wire_gates_are_unitary(name):
    params = (0.3,) if name == "RZ" else ()
    u = gate_unitary(name, params)
    dev = np.max(np.abs(u.entries @ u.entries.conj().T - np.eye(u.dim)))
    assert dev < 1e-12


def test_rz_matrix_convention():
    theta = 0.7
    np.testing.assert_allclose(
        rz_matrix(theta),
        np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)]))


def test_s_dag_is_diag_1_minus_i():
    np.testing.assert_allclose(gate_unitary("S_dag").entries, np.diag([1, -1j]))


def test_shift_increments_levels():
    x4 = shift_matrix(4)
    for j in range(4):
        col = np.zeros(4)
        col[j] = 1
        assert np.argmax(np.abs(x4 @ col)) == (j + 1) % 4


def test_clock_dag_phases():
    np.testing.assert_allclose(clock_dag_matrix(4), np.diag([1, -1j, -1, 1j]), atol=1e-15)


def test_complement_permutation():
    k4 = complement_matrix(4)
    for j, image in enumerate((0, 3, 2, 1)):
        col = np.zeros(4)
        col[j] = 1
        assert np.argmax(np.abs(k4 @ col)) == image


def test_csum_action_all_basis():
    m = csum_matrix(4)
    for i in range(4):
        for j in range(4):
            col = np.zeros(16)
            col[4 * i + j] = 1
            assert np.argmax(np.abs(m @ col)) == 4 * i + (i + j) % 4


def test_csum_dag_inverts():
    m = csum_matrix(4)
    np.testing.assert_allclose(m @ m.conj().T, np.eye(16), atol=1e-15)
    dag = gate_unitary("CSUM4_dag").entries
    np.testing.assert_allclose(dag @ m, np.eye(16), atol=1e-15)


def test_qudit_gate_algebra():
    h4 = fourier_matrix(4)
    np.testing.assert_allclose(h4 @ h4.conj().T, np.eye(4), atol=1e-14)
    np.testing.assert_allclose(np.linalg.matrix_power(shift_matrix(4), 4), np.eye(4))
    np.testing.assert_allclose(complement_matrix(4) @ complement_matrix(4), np.eye(4))
    cz4 = czd_matrix(4)
    np.testing.assert_allclose(np.linalg.matrix_power(cz4, 4), np.eye(16), atol=1e-13)


def test_cz4_from_fourier_conjugated_csum():
    h4 = fourier_matrix(4)
    eye = np.eye(4)
    built = np.kron(eye, h4) @ csum_matrix(4) @ np.kron(eye, h4.conj().T)
    np.testing.assert_allclose(built, czd_matrix(4), atol=1e-13)


def test_cz4_squared_diagonal():
    sq = czd_matrix(4) @ czd_matrix(4)
    expected = np.diag([(-1.0) ** (j * k) for j in range(4) for k in range(4)])
    np.testing.assert_allclose(sq, expected, atol=1e-13)


def test_level_swap_parity():
    # after swapping |2> and |3>, the low digit of |2 q_a + q_b> is q_a xor q_b
    x23 = level_swap_matrix(4, 2, 3)
    for qa in range(2):
        for qb in range(2):
            col = np.zeros(4)
            col[2 * qa + qb] = 1
            image = int(np.argmax(np.abs(x23 @ col)))
            assert image % 2 == qa ^ qb
            assert image // 2 == qa


def test_p3_flips_only_top_level():
    np.testing.assert_allclose(gate_unitary("P3").entries, np.diag([1, 1, 1, -1]))


def test_gate_power_matches_repeated_application():
    x4 = gate_unitary("X4").entries
    np.testing.assert_allclose(gate_power("X4", (), 3).entries, np.linalg.matrix_power(x4, 3))
    np.testing.assert_allclose(gate_power("Z4_dag", (), 2).entries,
                               np.diag([1, -1, 1, -1]), atol=1e-15)


def test_unknown_gate_rejected():
    with pytest.raises(ValueError, match="unknown gate"):
        gate_unitary("TOFFOLI")
    with pytest.raises(ValueError, match="parameter"):
        gate_unitary("RZ")


def test_general_dimension_constructors():
    for d in (3, 5):
        h = fourier_matrix(d)
        np.testing.assert_allclose(h @ h.conj().T, np.eye(d), atol=1e-13)
        np.testing.assert_allclose(np.linalg.matrix_power(shift_matrix(d), d), np.eye(d))
        m = csum_matrix(d)
        np.testing.assert_allclose(m @ m.conj().T, np.eye(d * d), atol=1e-13)


@pytest.mark.parametrize("resolve", [lambda: gate_unitary("CZ", ()), lambda: gate_power("CZ", (), 1),
                                     lambda: gate_power("X4", (), 3)])
def test_cached_gate_matrices_are_read_only(resolve):
    # they are shared by the whole process: one write would corrupt every later circuit
    from distgates import catalog
    from distgates.verify import random_inputs, verify

    u = resolve()
    with pytest.raises(ValueError, match="read-only"):
        u.entries[-1, -1] = 1
    assert resolve() is u
    entry = catalog.tagged("corpus")["gcz6_3n_fanout"]
    circuit = entry.build()  # built after the attempted write
    report = verify(circuit, entry.make_oracle(), random_inputs(circuit, 4, seed=5))
    assert report.passed and report.min_fidelity > 1 - 1e-9
