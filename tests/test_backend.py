"""backend.apply_matrix: each structure's kernel against the transpose–matmul reference."""

import itertools
import math

import numpy as np
import pytest

from conftest import apply_matrix_reference, random_unitary
from distgates import backend, lms_matrix
from distgates.gates import _REGISTRY, cz4_sq_matrix, gate_power, h_matrix, s_dag_matrix, x_matrix
from distgates.verify import oracle_csum4, oracle_multitarget_cu

REGISTERS = [(2, 4, 2, 4, 2), (4, 4, 4), (2,) * 6]
PARAMS = {"RZ": (0.7,)}

DIAGONAL = {"Z", "S_dag", "RZ", "CZ", "P3", "Z4_dag", "CZ4"}
MONOMIAL = {"X", "CNOT", "X23", "X4", "K4", "CSUM4", "CSUM4_dag"}
DENSE = {"H", "H4", "H4_dag"}


def _states(dims, seed):
    rng = np.random.default_rng(seed)
    n = math.prod(dims)
    vec = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    batch = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    return vec, batch


def _check_everywhere(mat, arity):
    """``mat`` on every ordered choice of axes of matching dims, unbatched and k = 3."""
    checked = 0
    for seed, dims in enumerate(REGISTERS):
        for amps in _states(dims, seed):
            for axes in itertools.permutations(range(len(dims)), len(arity)):
                if tuple(dims[a] for a in axes) != arity:
                    continue
                before = amps.copy()
                out = backend.apply_matrix(amps, dims, axes, mat)
                np.testing.assert_allclose(out, apply_matrix_reference(amps, dims, axes, mat),
                                           rtol=0, atol=1e-12, err_msg=f"{dims} {axes}")
                assert out.shape == amps.shape
                assert not np.shares_memory(out, amps)
                np.testing.assert_array_equal(amps, before)
                checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_registry_gate_powers_match_reference(name):
    params = PARAMS.get(name, ())
    for exponent in (1, 2, 3):
        u = gate_power(name, params, exponent)
        assert _check_everywhere(u.entries, u.arity) > 0


def test_registry_gates_take_the_kernel_of_their_structure():
    assert DIAGONAL | MONOMIAL | DENSE == set(_REGISTRY)
    for name in _REGISTRY:
        mat = gate_power(name, PARAMS.get(name, ()), 1).entries
        structure = backend._structure((mat.shape, mat.dtype.str, mat.tobytes()))
        kind = "dense" if structure is None else "diagonal" if structure[0] is None else "monomial"
        assert name in {"diagonal": DIAGONAL, "monomial": MONOMIAL, "dense": DENSE}[kind], name


def test_oracle_factors_match_reference():
    rng = np.random.default_rng(11)
    controlled = [u.entries for _, u in
                  oracle_multitarget_cu([h_matrix(), x_matrix(), s_dag_matrix()]).factors]
    cases = [(lms_matrix(math.pi / 3).entries, (2, 2)), (cz4_sq_matrix(), (4, 4)),
             (oracle_csum4().factors[0][1].entries, (4, 4)),
             (random_unitary(4, rng), (2, 2)), (random_unitary(4, rng), (4,))]
    cases += [(cu, (2, 2)) for cu in controlled]
    for mat, arity in cases:
        assert _check_everywhere(mat, arity) > 0


def test_matrix_mutated_after_first_use_gives_the_new_result():
    dims, axes = (2, 4, 2), (2, 0)
    amps, _ = _states(dims, 3)
    mat = gate_power("CNOT", (), 1).entries.copy()
    backend.apply_matrix(amps, dims, axes, mat)
    for new in (np.diag([1, 1j, -1, 1]), np.eye(4)[[1, 0, 3, 2]] * 1j,
                random_unitary(4, np.random.default_rng(5))):
        mat[:] = new
        np.testing.assert_allclose(backend.apply_matrix(amps, dims, axes, mat),
                                   apply_matrix_reference(amps, dims, axes, mat),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(_REGISTRY))
def test_ready_plan_is_bitwise_the_looked_up_plan(name):
    params = PARAMS.get(name, ())
    for exponent in (0, 1, 2, 3):
        u = gate_power(name, params, exponent)
        mat, arity = u.entries, u.arity
        for seed, dims in enumerate(REGISTERS):
            for amps in _states(dims, seed):
                for axes in itertools.permutations(range(len(dims)), len(arity)):
                    if tuple(dims[a] for a in axes) != arity:
                        continue
                    plan = backend.kernel_plan(mat, dims, axes)
                    backend._plan.cache_clear()  # the ready plan must not need the cache
                    got = backend.apply_matrix(amps, dims, axes, mat, plan)
                    want = backend.apply_matrix(amps, dims, axes, mat)
                    assert got.tobytes() == want.tobytes()


def test_caches_stay_bounded():
    x = gate_power("X", (), 1).entries
    z = gate_power("Z", (), 1).entries
    for m in range(2, 1002):  # 1000 distinct (dims, axes), each with two matrices
        dims = (2, m)
        amps = np.ones(2 * m, dtype=np.complex128)
        for mat in (x, z):
            out = backend.apply_matrix(amps, dims, (0,), mat)
            np.testing.assert_array_equal(out, apply_matrix_reference(amps, dims, (0,), mat))
    for cache in (backend._structure, backend._plan):
        assert cache.cache_info().currsize <= backend.CACHE_SIZE
    assert backend._plan.cache_info().currsize == backend.CACHE_SIZE
