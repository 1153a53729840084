"""Verifier: oracle construction, report behavior, negative controls."""

import json
import math
import tracemalloc

import numpy as np
import pytest
from conftest import (H, I2, X, bits_of, builder_corpus, csum_multi_reference, digits_of,
                      expm_xx_sum, gcz_phase, kron_embed)

from distgates import (DistCircuit, GateRef, MixedRegister, NodeLayout, Unitary, backend,
                       build_dcontrol_u, build_dcsum4, enumerate_branches, lms_matrix)
from distgates.gates import s_dag_matrix
from distgates.verify import (OracleSpec, PhaseOracle, ProductOracle, basis_inputs,
                              embed_unitary, identity_checks, oracle_gcz, oracle_gms,
                              oracle_multitarget_cu, oracle_qudit_gcz, random_inputs, verify)

LAY_AB = NodeLayout(("A", "B"), {"c": "A", "t": "B"})


def test_oracle_gms_two_qubits_is_lms():
    theta = 0.9
    np.testing.assert_allclose(oracle_gms(2, theta).entries,
                               lms_matrix(theta).entries, atol=1e-14)


def test_oracle_gms_product_matches_diagonalization():
    theta = math.pi / 5
    np.testing.assert_allclose(oracle_gms(4, theta).entries,
                               expm_xx_sum(4, theta), atol=1e-10)


def test_oracle_gms_conjugated_gives_cz():
    # e^{i pi/4} (Sdg x Sdg)(H x H) GMS(pi/2) (H x H) = CZ, phase included
    h2 = np.kron(H, H)
    sdg2 = np.kron(s_dag_matrix(), s_dag_matrix())
    built = np.exp(1j * math.pi / 4) * sdg2 @ h2 @ oracle_gms(2, math.pi / 2).entries @ h2
    np.testing.assert_allclose(built, oracle_gcz(2).entries, atol=1e-12)


def test_oracle_gcz_extends_pairwise_identity():
    # each pairwise factor equals CZ exactly, so the 4-qubit product is GCZ
    h2 = np.kron(H, H)
    sdg2 = np.kron(s_dag_matrix(), s_dag_matrix())
    cz_pair = np.exp(1j * math.pi / 4) * sdg2 @ h2 @ lms_matrix(math.pi / 2).entries @ h2
    built = np.eye(16, dtype=complex)
    for i in range(4):
        for j in range(i + 1, 4):
            # embed the 2-qubit factor at positions (i, j)
            frame = np.eye(16, dtype=complex)
            diag = np.ones(16, dtype=complex)
            for idx in range(16):
                bits = [(idx >> (3 - p)) & 1 for p in range(4)]
                diag[idx] = cz_pair[2 * bits[i] + bits[j], 2 * bits[i] + bits[j]]
            built = np.diag(diag) @ built
    np.testing.assert_allclose(built, oracle_gcz(4).entries, atol=1e-12)


def test_oracle_gcz_phases():
    gcz = oracle_gcz(4).entries
    assert gcz[15, 15] == 1    # |1111>: six pair terms, even
    assert gcz[12, 12] == -1   # |1100>: only the first pair fires
    for idx in range(16):
        bits = [(idx >> (3 - p)) & 1 for p in range(4)]
        assert gcz[idx, idx] == (-1.0) ** gcz_phase(bits)


def test_oracle_qudit_gcz_matches_bit_expansion():
    oracle = oracle_qudit_gcz(2).entries
    for idx in range(16):
        d1, d2 = idx // 4, idx % 4
        bits = [d1 >> 1, d1 & 1, d2 >> 1, d2 & 1]
        assert oracle[idx, idx] == (-1.0) ** gcz_phase(bits)


def test_verify_dcnot_counts_and_passes():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    inputs = basis_inputs(circuit) + random_inputs(circuit, 10)
    report = verify(circuit, OracleSpec("cnot"), inputs, merge=False)
    assert report.passed
    assert report.inputs_checked == 14
    assert report.branches == 14 * 4  # two measurements, two outcomes each
    assert report.min_fidelity > 1 - 1e-9
    assert report.failures == []


def _drop_instruction(circuit: DistCircuit, index: int) -> DistCircuit:
    kept = circuit.instructions[:index] + circuit.instructions[index + 1:]
    return DistCircuit(circuit.layout, kept, circuit.inputs, circuit.outputs)


def test_corrupted_circuit_is_detected():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    z_index = next(i for i, ins in enumerate(circuit.instructions)
                   if ins.kind == "CondGate" and ins.gate == "Z")
    corrupted = _drop_instruction(circuit, z_index)
    report = verify(corrupted, OracleSpec("cnot"),
                    basis_inputs(corrupted) + random_inputs(corrupted, 5))
    assert not report.passed
    assert report.min_fidelity < 1 - 1e-3
    assert report.failures and report.failures[0].outcomes


def test_every_dropped_correction_is_detected():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    cond_indices = [i for i, ins in enumerate(circuit.instructions) if ins.kind == "CondGate"]
    assert cond_indices
    for index in cond_indices:
        corrupted = _drop_instruction(circuit, index)
        report = verify(corrupted, OracleSpec("cnot"),
                        basis_inputs(corrupted) + random_inputs(corrupted, 5))
        assert report.min_fidelity < 1 - 1e-3, f"dropping instruction {index} went unnoticed"


def test_report_json_is_deterministic():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    inputs = basis_inputs(circuit)
    a = verify(circuit, OracleSpec("cnot"), inputs, seed=7).to_json()
    b = verify(circuit, OracleSpec("cnot"), inputs, seed=7).to_json()
    assert a == b
    doc = json.loads(a)
    assert doc["passed"] is True
    assert doc["resource_tally"]["ep"] == 1
    assert doc["seed"] == 7


def test_random_inputs_are_seeded():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    a = random_inputs(circuit, 3, seed=11)
    b = random_inputs(circuit, 3, seed=11)
    for x, y in zip(a, b):
        np.testing.assert_array_equal(x.amps, y.amps)


def test_verify_merged_and_exact_agree():
    circuit = build_dcsum4("Q1", "Q2", NodeLayout(("n1", "n2"), {"Q1": "n1", "Q2": "n2"}))
    inputs = random_inputs(circuit, 3)
    merged = verify(circuit, OracleSpec("csum4"), inputs, merge=True)
    exact = verify(circuit, OracleSpec("csum4"), inputs, merge=False)
    assert merged.passed and exact.passed
    assert merged.branches == exact.branches  # weights preserve the count


def test_identity_suite_all_within_tolerance():
    checks = identity_checks()
    assert len(checks) >= 12
    for name, dev in checks:
        assert dev <= 1e-12, f"{name}: {dev}"


def test_oracle_spec_dispatch():
    assert OracleSpec("gcz").unitary(2).dim == 4
    assert OracleSpec("gms", theta=0.3).unitary(3).dim == 8
    assert OracleSpec("csum4").unitary(2).dim == 16
    assert OracleSpec("qudit_gcz").unitary(3).dim == 64
    with pytest.raises(ValueError, match="theta"):
        OracleSpec("gms").unitary(2)
    with pytest.raises(ValueError, match="unknown oracle"):
        OracleSpec("swap").unitary(2)


def test_branch_weights_sum_probability_to_one():
    circuit = build_dcsum4("Q1", "Q2", NodeLayout(("n1", "n2"), {"Q1": "n1", "Q2": "n2"}))
    inputs = random_inputs(circuit, 2)
    for state in inputs:
        branches = enumerate_branches(circuit, state, merge_equal=True)
        assert abs(sum(b.probability for b in branches) - 1) < 1e-10
        assert sum(b.weight for b in branches) == 16


def test_every_protocol_is_deterministic_up_to_corrections():
    # merging only joins states equal within 1e-12, so a single surviving
    # branch means every measurement outcome led to the same corrected state
    from conftest import builder_corpus
    for name, circuit in builder_corpus().items():
        state = random_inputs(circuit, 1, seed=5)[0]
        branches = enumerate_branches(circuit, state, merge_equal=True)
        assert len(branches) == 1, f"{name} branches diverge"
        assert abs(branches[0].probability - 1) < 1e-10


# The vectorized oracle, basis and embedding builders against the digit loops
# they replaced: results must be bit-identical.

def _loop_gcz_diagonal(bits_per_index):
    diag = np.ones(len(bits_per_index), dtype=np.complex128)
    for idx, bits in enumerate(bits_per_index):
        n = len(bits)
        parity = sum(bits[i] * bits[j] for i in range(n) for j in range(i + 1, n)) % 2
        diag[idx] = -1.0 if parity else 1.0
    return diag


@pytest.mark.parametrize("n", range(2, 11))
def test_oracle_gcz_equals_digit_loop(n):
    bits = [[(idx >> (n - 1 - p)) & 1 for p in range(n)] for idx in range(2 ** n)]
    np.testing.assert_array_equal(oracle_gcz(n).entries, np.diag(_loop_gcz_diagonal(bits)))


@pytest.mark.parametrize("n_qudits", range(1, 6))
def test_oracle_qudit_gcz_equals_digit_loop(n_qudits):
    bits = []
    for idx in range(4 ** n_qudits):
        digits, v = [], idx
        for _ in range(n_qudits):
            digits.append(v % 4)
            v //= 4
        digits.reverse()
        bits.append([b for d in digits for b in (d >> 1, d & 1)])
    np.testing.assert_array_equal(oracle_qudit_gcz(n_qudits).entries,
                                  np.diag(_loop_gcz_diagonal(bits)))


@pytest.mark.parametrize("dims,axes", [((2, 4, 2), (2, 0)), ((4, 4, 4), (1,)),
                                       ((2,) * 10, (7, 3)), ((2, 2), (0, 1))])
def test_embed_unitary_equals_column_loop(dims, axes):
    rng = np.random.default_rng(len(dims))
    h = math.prod(dims[a] for a in axes)
    mat = rng.standard_normal((h, h)) + 1j * rng.standard_normal((h, h))
    total = math.prod(dims)
    expected = np.empty((total, total), dtype=np.complex128)
    basis = np.zeros(total, dtype=np.complex128)
    for col in range(total):
        basis[:] = 0.0
        basis[col] = 1.0
        expected[:, col] = backend.apply_matrix(basis, dims, axes, mat)
    np.testing.assert_array_equal(embed_unitary(mat, axes, dims), expected)


def test_basis_inputs_equal_digit_loop():
    from conftest import builder_corpus
    for name, circuit in builder_corpus().items():
        states = basis_inputs(circuit)
        in_dims = states[0].dims
        assert len(states) == math.prod(in_dims), name
        for idx, state in enumerate(states):
            digits, v = [], idx
            for d in reversed(in_dims):
                digits.append(v % d)
                v //= d
            digits.reverse()
            expected = MixedRegister.basis(circuit.inputs, in_dims, digits)
            np.testing.assert_array_equal(state.amps, expected.amps)


# Applied oracles against dense references built independently, digit by digit
# or by Kronecker products: exact for the phase oracles, 1e-12 for the products.

def _dense_reference(kind: str, n: int, theta: float) -> np.ndarray:
    if kind == "gms":
        return expm_xx_sum(n, theta)
    if kind == "gcz":
        return np.diag([(-1.0) ** gcz_phase(bits_of(idx, n)) for idx in range(2 ** n)])
    if kind == "qudit_gcz":
        return np.diag([(-1.0) ** gcz_phase([b for d in digits_of(idx, (4,) * n)
                                              for b in (d >> 1, d & 1)])
                        for idx in range(4 ** n)])
    if kind == "cnot":
        p0, p1 = np.diag([1, 0]).astype(complex), np.diag([0, 1]).astype(complex)
        flips = np.eye(2 ** n, dtype=complex)
        for t in range(1, n):
            flips = kron_embed(X, t, n) @ flips
        return kron_embed(p0, 0, n) + kron_embed(p1, 0, n) @ flips
    if kind in ("csum4", "csum4_multi"):
        return csum_multi_reference(4, n - 1)
    if kind in ("cz4", "cz4_sq"):
        power = 1 if kind == "cz4" else 2
        return np.diag([np.exp(0.5j * math.pi * power * d[0] * sum(d[1:]))
                        for d in (digits_of(idx, (4,) * n) for idx in range(4 ** n))])
    raise AssertionError(kind)


ORACLE_CASES = ([("gms", n) for n in (2, 3, 4, 5)] + [("gcz", n) for n in (2, 3, 5, 7)]
                + [("qudit_gcz", n) for n in (1, 2, 3)] + [("cnot", n) for n in (2, 3, 5)]
                + [("csum4", 2), ("csum4_multi", 3), ("csum4_multi", 4), ("cz4", 2)]
                + [("cz4_sq", n) for n in (2, 3, 4)])


@pytest.mark.parametrize("kind,n", ORACLE_CASES)
def test_applied_oracle_equals_dense_reference(kind, n):
    theta = 0.37 * n
    oracle = OracleSpec(kind, theta).unitary(n)
    reference = _dense_reference(kind, n, theta)
    rng = np.random.default_rng(n)
    psi = rng.standard_normal((oracle.dim, 5)) + 1j * rng.standard_normal((oracle.dim, 5))
    applied = oracle.apply(psi)
    if isinstance(oracle, PhaseOracle):
        np.testing.assert_array_equal(applied, reference @ psi)
        np.testing.assert_array_equal(oracle.apply(psi[:, 0]), applied[:, 0])
    else:
        np.testing.assert_allclose(applied, reference @ psi, rtol=0, atol=1e-12)
        np.testing.assert_allclose(oracle.apply(psi[:, 0]), applied[:, 0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(oracle.entries, reference, rtol=0, atol=1e-12)


def test_gcz12_oracle_is_applied_without_a_dense_matrix():
    # a dense 4096 x 4096 complex matrix alone would take 256 MiB
    rng = np.random.default_rng(12)
    psi = rng.standard_normal((4096, 16)) + 1j * rng.standard_normal((4096, 16))
    tracemalloc.start()
    try:
        applied = OracleSpec("gcz").unitary(12).apply(psi)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert applied.nbytes <= peak < 16 * 2 ** 20  # the result itself is traced
    weights = np.array([bin(idx).count("1") for idx in range(4096)])
    np.testing.assert_array_equal(applied, psi * (-1.0) ** (weights * (weights - 1) // 2)[:, None])


def test_verify_never_builds_a_dense_oracle(monkeypatch):
    def forbidden(self):
        raise AssertionError("verify asked for a dense oracle")

    monkeypatch.setattr(PhaseOracle, "entries", property(forbidden))
    monkeypatch.setattr(ProductOracle, "entries", property(forbidden))
    corpus = builder_corpus()
    for name, kind, theta in (
            ("dcnot", "cnot", None), ("gms4_fanout", "gms", math.pi / 2),
            ("gcz6_3n_fanout", "gcz", None), ("dcsum4", "csum4", None),
            ("dcsum4_multi", "csum4_multi", None), ("dcz4", "cz4", None),
            ("dcz4_sq", "cz4_sq", None), ("dcz4_sq_multi", "cz4_sq", None),
            ("qudit_gcz4", "qudit_gcz", None)):
        circuit = corpus[name]
        assert verify(circuit, OracleSpec(kind, theta), random_inputs(circuit, 2)).passed, name


def test_non_unitary_phases_and_factors_are_rejected():
    with pytest.raises(ValueError, match="not unimodular"):
        PhaseOracle(np.array([1, -1, 1j, 1 + 1e-9]), (2, 2))
    with pytest.raises(ValueError, match="does not match arity"):
        PhaseOracle(np.ones(8), (2, 2))
    assert PhaseOracle(np.array([1, -1, 1j, 1 + 1e-13]), (2, 2)).dim == 4
    with pytest.raises(ValueError, match="not unitary"):
        oracle_multitarget_cu([X, np.diag([1.0, 1.001])])
    cz = Unitary(np.diag([1, 1, 1, -1]), (2, 2))
    with pytest.raises(ValueError, match="does not match axes"):
        ProductOracle((2, 4), [((0, 1), cz)])
    with pytest.raises(ValueError, match="not distinct axes"):
        ProductOracle((2, 2), [((0, 0), cz)])
    with pytest.raises(ValueError, match="not distinct axes"):
        ProductOracle((2, 2), [((1, 2), cz)])


def test_verify_rejects_an_oracle_of_the_wrong_dimension():
    circuit = build_dcontrol_u("c", "t", GateRef("X"), LAY_AB)
    with pytest.raises(ValueError, match="oracle dimension 8"):
        verify(circuit, oracle_gcz(3), basis_inputs(circuit))
