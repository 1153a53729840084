"""Statevector core: gate application, measurement enumeration, tensor, fidelity."""

import math
import re

import numpy as np
import pytest
from conftest import digits_of, measure_loop_reference, measure_reference, random_unitary

from distgates import backend
from distgates.gates import czd_matrix, gate_unitary
from distgates.statevec import (MixedRegister, Unitary, apply_unitary,
                                fidelity_up_to_phase, measure_enumerate, permute,
                                random_register, tensor)

MIXED_DIMS = (4, 2, 4, 2)


def test_x_flips_zero():
    s = MixedRegister.basis(("q",), (2,), (0,))
    out = apply_unitary(s, gate_unitary("X"), ("q",))
    np.testing.assert_allclose(out.amps, [0, 1])


def test_h_makes_plus():
    s = MixedRegister.basis(("q",), (2,), (0,))
    out = apply_unitary(s, gate_unitary("H"), ("q",))
    np.testing.assert_allclose(out.amps, [1 / math.sqrt(2), 1 / math.sqrt(2)], atol=1e-15)


def test_cz4_squared_on_33_gives_minus():
    # (CZ4)^2 is diagonal (-1)^(jk); j = k = 3 gives (-1)^9 = -1
    s = MixedRegister.basis(("a", "b"), (4, 4), (3, 3))
    sq = Unitary(czd_matrix(4) @ czd_matrix(4), (4, 4))
    out = apply_unitary(s, sq, ("a", "b"))
    assert abs(out.amps[15] + 1) < 1e-12


def test_apply_errors():
    s = MixedRegister.basis(("a", "b"), (2, 4), (0, 0))
    with pytest.raises(ValueError, match="unknown"):
        apply_unitary(s, gate_unitary("X"), ("zz",))
    with pytest.raises(ValueError, match="arity"):
        apply_unitary(s, gate_unitary("X"), ("b",))
    with pytest.raises(ValueError, match="duplicate"):
        apply_unitary(s, gate_unitary("CNOT"), ("a", "a"))


def test_register_validation():
    with pytest.raises(ValueError, match="normalized"):
        MixedRegister((2,), np.array([1.0, 1.0]), ("q",))
    with pytest.raises(ValueError, match="unique"):
        MixedRegister((2, 2), np.array([1, 0, 0, 0.0]), ("q", "q"))
    with pytest.raises(ValueError, match="length"):
        MixedRegister((2, 2), np.array([1, 0, 0.0]), ("a", "b"))


def test_norm_preserved_random_gates():
    rng = np.random.default_rng(11)
    state = random_register(("a", "b", "c"), (2, 4, 2), rng)
    for _ in range(40):
        u2 = Unitary(random_unitary(2, rng), (2,))
        u8 = Unitary(random_unitary(8, rng), (2, 4))
        state = apply_unitary(state, u2, ("c",))
        state = apply_unitary(state, u8, ("a", "b"))
    assert abs(np.linalg.norm(state.amps) - 1) < 1e-12


def test_a_64_by_64_unitary_is_checked_as_the_plain_product_checks_it():
    rng = np.random.default_rng(5)
    mat = random_unitary(64, rng)
    np.testing.assert_array_equal(Unitary(mat, (4, 4, 4)).entries, mat)
    bad = mat.copy()
    bad[3, 5] += 1e-9
    dev = np.max(np.abs(bad @ bad.conj().T - np.eye(64)))
    with pytest.raises(ValueError, match=re.escape(f"matrix is not unitary (max |U U+ - I| = "
                                                   f"{dev:.3e})")):
        Unitary(bad, (4, 4, 4))
    bad[3, 5] = np.nan
    with pytest.raises(ValueError, match="matrix is not unitary"):
        Unitary(bad, (4, 4, 4))


def test_disjoint_targets_commute():
    rng = np.random.default_rng(3)
    state = random_register(("a", "b", "c", "d"), (2, 2, 2, 2), rng)
    u1 = Unitary(random_unitary(4, rng), (2, 2))
    u2 = Unitary(random_unitary(4, rng), (2, 2))
    ab_first = apply_unitary(apply_unitary(state, u1, ("a", "c")), u2, ("d", "b"))
    db_first = apply_unitary(apply_unitary(state, u2, ("d", "b")), u1, ("a", "c"))
    np.testing.assert_allclose(ab_first.amps, db_first.amps, atol=1e-12)


def test_measure_plus_state():
    s = apply_unitary(MixedRegister.basis(("q", "r"), (2, 2), (0, 0)),
                      gate_unitary("H"), ("q",))
    branches = measure_enumerate(s, "q")
    assert [b.outcomes for b in branches] == [(("q", 0),), (("q", 1),)]
    for b in branches:
        assert abs(b.probability - 0.5) < 1e-12
        assert b.state.labels == ("r",)
        np.testing.assert_allclose(b.state.amps, [1, 0], atol=1e-12)


def test_measure_qudit_superposition():
    amps = np.zeros(4, dtype=complex)
    amps[0] = amps[2] = 1 / math.sqrt(2)
    branches = measure_enumerate(MixedRegister((4,), amps, ("Q",)), "Q")
    assert [(b.outcomes[0][1], round(b.probability, 12)) for b in branches] == [(0, 0.5), (2, 0.5)]


def test_measure_entangled_share_after_complement():
    # Control |1> summed against a maximally correlated qudit pair whose first
    # half has been mapped k -> (1 - k) mod 4: measuring that half at outcome m
    # must leave the second half in |(1 - m) mod 4>, each branch at p = 1/4.
    amps = np.zeros(4 * 4 * 4, dtype=complex)
    j = 1
    for k in range(4):
        amps[(j * 4 + (j - k) % 4) * 4 + k] = 0.5
    state = MixedRegister((4, 4, 4), amps, ("Q1", "E1", "E2"))
    branches = measure_enumerate(state, "E1")
    assert len(branches) == 4
    for m, b in enumerate(branches):
        assert b.outcomes == (("E1", m),)
        assert abs(b.probability - 0.25) < 1e-12
        expected = MixedRegister.basis(("Q1", "E2"), (4, 4), (1, (1 - m) % 4))
        assert fidelity_up_to_phase(b.state, expected) > 1 - 1e-12


def test_branch_probabilities_sum_to_one():
    rng = np.random.default_rng(5)
    for _ in range(10):
        state = random_register(("a", "b", "c"), (2, 4, 2), rng)
        for label in ("a", "b", "c"):
            total = sum(b.probability for b in measure_enumerate(state, label))
            assert abs(total - 1) < 1e-10


def _column(dims, axis, outcome0_weight, rng):
    """A random state whose outcome-0 weight at ``axis`` is ``outcome0_weight`` (None: as drawn)."""
    n = math.prod(dims)
    t = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).reshape(
        math.prod(dims[:axis]), dims[axis], -1)
    if outcome0_weight is not None:
        t[:, 0] = 0.0
        t *= math.sqrt(1 - outcome0_weight) / np.linalg.norm(t)
        t[0, 0, 0] = math.sqrt(outcome0_weight)
    else:
        t /= np.linalg.norm(t)
    return t.reshape(-1)


# outcome-0 weights: as drawn, exactly zero, just below PRUNE_TOL (pruned), just above (kept);
# each alone as a single state and as a batch of one, and 1e-13, 0, 1e-15 as one batch
WEIGHTS = (None, 0.0, 1e-15, 1e-13)
CASES = ([(False, (w,)) for w in WEIGHTS] + [(True, (w,)) for w in WEIGHTS]
         + [(True, (1e-13, 0.0, 1e-15))])


@pytest.mark.parametrize("axis", range(len(MIXED_DIMS)))
@pytest.mark.parametrize("batched,columns", CASES, ids=[
    f"{'k' + str(len(c)) if b else 'single'}-{'/'.join(map(str, c))}" for b, c in CASES])
def test_measure_matches_the_direct_formulation(axis, batched, columns):
    rng = np.random.default_rng([axis, len(columns), batched])
    amps = np.stack([_column(MIXED_DIMS, axis, w, rng) for w in columns], axis=1)
    labels = tuple("abcd")
    state = MixedRegister(MIXED_DIMS, amps if batched else amps[:, 0], labels)
    got = measure_enumerate(state, labels[axis])
    want = measure_reference(state, labels[axis])
    assert [b.outcomes for b in got] == [((labels[axis], m),) for m, _, _ in want]
    for b, (_, prob, ref) in zip(got, want):
        assert type(b.probability) is type(prob)
        assert np.abs(b.probability - prob).max() <= 1e-14
        assert b.state.amps.shape == ref.shape
        assert np.abs(b.state.amps - ref).max() <= 1e-15
        dead = np.asarray(prob) == 0
        assert not np.asarray(b.probability)[dead].any()
        assert not b.state.amps.reshape(len(ref), -1)[:, dead].any()
    kept = {m for m, _, _ in want}
    assert (0 in kept) == any(w is None or w >= 1e-13 for w in columns)


@pytest.mark.parametrize("axis", range(len(MIXED_DIMS)))
@pytest.mark.parametrize("batched,columns", CASES + [(True, (None,) * 21)], ids=[
    f"{'k' + str(len(c)) if b else 'single'}-{'/'.join(map(str, c[:3]))}"
    for b, c in CASES + [(True, (None,) * 21)]])
def test_measure_is_bitwise_the_per_outcome_loop(axis, batched, columns):
    rng = np.random.default_rng([axis, len(columns), batched, 1])
    amps = np.stack([_column(MIXED_DIMS, axis, w, rng) for w in columns], axis=1)
    labels = tuple("abcd")
    state = MixedRegister(MIXED_DIMS, amps if batched else amps[:, 0], labels)
    got = measure_enumerate(state, labels[axis])
    want = measure_loop_reference(state, labels[axis])
    assert [b.outcomes for b in got] == [((labels[axis], m),) for m, _, _ in want]
    for b, (_, prob, ref) in zip(got, want):
        assert type(b.probability) is type(prob)
        assert np.asarray(b.probability).tobytes() == np.asarray(prob).tobytes()
        if batched:
            np.testing.assert_array_equal(b.alive, prob > 0)
        else:
            assert b.alive is None
        assert b.state.amps.shape == ref.shape and b.state.amps.flags.c_contiguous
        assert b.state.amps.tobytes() == ref.tobytes()
        assert (b.state.dims, b.state.labels) == (
            MIXED_DIMS[:axis] + MIXED_DIMS[axis + 1:], labels[:axis] + labels[axis + 1:])


@pytest.mark.parametrize("n", [14, 15])
def test_measure_sums_over_the_largest_registers(n, monkeypatch):
    # measuring the last qubit sums over 2^(n - 1) amplitudes: all of the shared ones
    # vector at the default cap of 2^14, and more than it holds when the cap is raised.
    # Registers this large take the einsum sum, so the gemv path is forced here.
    monkeypatch.setenv("DISTGATES_MAX_DIM", str(2 ** n))
    monkeypatch.setattr(backend, "POOL_MIN_BYTES", 2 ** 40)
    rng = np.random.default_rng(n)
    amps = rng.standard_normal((2 ** n, 2)) + 1j * rng.standard_normal((2 ** n, 2))
    labels = tuple(f"q{i}" for i in range(n))
    state = MixedRegister((2,) * n, amps / np.linalg.norm(amps, axis=0), labels)
    got = measure_enumerate(state, labels[-1])
    want = measure_loop_reference(state, labels[-1])
    assert [b.outcomes[0][1] for b in got] == [m for m, _, _ in want] == [0, 1]
    for b, (_, prob, ref) in zip(got, want):
        assert b.probability.tobytes() == prob.tobytes()
        assert b.state.amps.tobytes() == ref.tobytes()


@pytest.mark.parametrize("batched", [False, True], ids=["single", "batch"])
def test_measure_holds_only_the_kept_outcomes(batched):
    # basis states keep one or two of an axis's outcomes: the returned states must not
    # hold copies of the dropped ones
    labels = tuple("abcd")
    digits = [(2, 1, 3, 0), (2, 1, 1, 0)]
    columns = [MixedRegister.basis(labels, MIXED_DIMS, x).amps for x in digits]
    state = MixedRegister(MIXED_DIMS, np.stack(columns, axis=1) if batched else columns[0],
                          labels)
    for axis, label in enumerate(labels):
        got = measure_enumerate(state, label)
        assert [b.outcomes[0][1] for b in got] == sorted(
            {x[axis] for x in (digits if batched else digits[:1])})
        kept_bytes = sum(b.state.amps.nbytes for b in got)
        assert all(b.state.amps.base.nbytes == kept_bytes for b in got)
        if not batched:
            want = MixedRegister.basis(labels[:axis] + labels[axis + 1:],
                                       MIXED_DIMS[:axis] + MIXED_DIMS[axis + 1:],
                                       digits[0][:axis] + digits[0][axis + 1:])
            np.testing.assert_array_equal(got[0].state.amps, want.amps)


@pytest.mark.parametrize("axis", [0, 1, 3], ids=["first", "middle", "last"])
@pytest.mark.parametrize("k", [None, 3], ids=["single", "batch"])
def test_measure_leaves_its_input_alone(axis, k):
    labels = tuple("abcd")
    state = random_register(labels, MIXED_DIMS, np.random.default_rng(axis))
    if k is not None:
        state = MixedRegister(MIXED_DIMS, np.stack([state.amps] * k, axis=1), labels)
    before = state.amps.tobytes()
    branches = measure_enumerate(state, labels[axis])
    assert len(branches) == MIXED_DIMS[axis]
    assert state.amps.tobytes() == before
    for b in branches:
        assert not np.shares_memory(b.state.amps, state.amps)


def test_fidelity_global_phase_and_orthogonal():
    rng = np.random.default_rng(9)
    psi = random_register(("a", "b"), (2, 2), rng)
    phased = MixedRegister(psi.dims, np.exp(1j * math.pi / 4) * psi.amps, psi.labels)
    assert abs(fidelity_up_to_phase(psi, phased) - 1) < 1e-12
    zero = MixedRegister.basis(("q",), (2,), (0,))
    one = MixedRegister.basis(("q",), (2,), (1,))
    assert fidelity_up_to_phase(zero, one) == 0
    with pytest.raises(ValueError, match="mismatch"):
        fidelity_up_to_phase(zero, psi)


def test_tensor_products():
    zero = MixedRegister.basis(("a",), (2,), (0,))
    one = MixedRegister.basis(("b",), (2,), (1,))
    np.testing.assert_allclose(tensor(zero, one).amps, [0, 1, 0, 0])
    plus = apply_unitary(zero, gate_unitary("H"), ("a",))
    plus_b = apply_unitary(MixedRegister.basis(("b",), (2,), (0,)), gate_unitary("H"), ("b",))
    np.testing.assert_allclose(tensor(plus, plus_b).amps, [0.5] * 4, atol=1e-15)
    with pytest.raises(ValueError, match="collision"):
        tensor(zero, MixedRegister.basis(("a",), (2,), (0,)))


def test_tensor_interleaves_entangled_qudit_pair():
    # Q1 (x) sum_k |kk>/2 (x) Q2 leaves Q1 as the most significant digit
    q1 = MixedRegister.basis(("Q1",), (4,), (2,))
    pair_amps = np.zeros(16, dtype=complex)
    pair_amps[[0, 5, 10, 15]] = 0.5
    pair = MixedRegister((4, 4), pair_amps, ("E1", "E2"))
    q2 = MixedRegister.basis(("Q2",), (4,), (3,))
    state = tensor(tensor(q1, pair), q2)
    assert state.labels == ("Q1", "E1", "E2", "Q2")
    for idx in np.flatnonzero(np.abs(state.amps) > 1e-12):
        d1, e1, e2, d2 = digits_of(int(idx), (4, 4, 4, 4))
        assert (d1, d2) == (2, 3) and e1 == e2


def test_permute_round_trip():
    rng = np.random.default_rng(2)
    state = random_register(("a", "b", "c"), (2, 4, 2), rng)
    swapped = permute(state, ("c", "a", "b"))
    assert swapped.dims == (2, 2, 4)
    back = permute(swapped, ("a", "b", "c"))
    np.testing.assert_allclose(back.amps, state.amps, atol=1e-15)


def test_register_cap(monkeypatch):
    with pytest.raises(ValueError, match="cap"):
        MixedRegister.basis([f"q{i}" for i in range(15)], (2,) * 15, (0,) * 15)
    monkeypatch.setenv("DISTGATES_MAX_DIM", str(2 ** 15))
    MixedRegister.basis([f"q{i}" for i in range(15)], (2,) * 15, (0,) * 15)
