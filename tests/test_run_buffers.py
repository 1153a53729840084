"""Blocked kernels and the one kernel of each operation on large registers: the same results,
and the caller's data never written."""

import importlib
import itertools

import numpy as np
import pytest
from conftest import (apply_matrix_reference, measure_loop_reference, measure_reference,
                      random_unitary)
from test_acceptance import _protocol_suite
from test_batched_verify import _dropped_variants

from distgates import backend, catalog
from distgates.circuit import RESOURCE_KINDS, Instruction
from distgates.gates import gate_power, gate_unitary, h_matrix
from distgates.simulate import MERGE_ATOL, _merge, enumerate_branches
from distgates.statevec import (DEFAULT_MAX_DIM, MixedRegister, measure_amps, measure_enumerate,
                                tensor_amps)
from distgates.steps import _Branch, _gap, _resource_amps, _Support
from distgates.verify import basis_inputs, random_inputs, verify

verify_module = importlib.import_module("distgates.verify")  # the package attribute is the function

H4 = np.exp(2j * np.pi * np.outer(range(4), range(4)) / 4) / 2


def _unowned_unblocked(monkeypatch):
    """The kernels as they were before blocking, and chunks set by the register cap."""
    monkeypatch.setattr(backend, "GEMM_SERIAL_WORK", 2 ** 62)
    monkeypatch.setattr(verify_module, "CHUNK_AMPLITUDES", DEFAULT_MAX_DIM)


def _blocked_everywhere(monkeypatch):
    """Every dense product blocked, down to the smallest register."""
    monkeypatch.setattr(backend, "GEMM_SERIAL_WORK", 2 ** 8)
    monkeypatch.setattr(backend, "BLOCK_AMPLITUDES", 2 ** 8)


def _random_batch(dims, k, seed):
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal((int(np.prod(dims)), k)) + 1j * rng.standard_normal(
        (int(np.prod(dims)), k))
    return amps / np.linalg.norm(amps, axis=0)


# (dims, batch width): 2^16, 2^14 and 24576 amplitudes, 256 KiB to 1 MiB each
LARGE = [((2,) * 14, 4), ((4,) * 6, 4), ((2, 3, 4, 2, 4, 2, 4), 16)]


@pytest.mark.parametrize("dims,k", LARGE)
def test_blocked_dense_kernel_matches_the_reference(dims, k):
    rng = np.random.default_rng(5)
    amps = _random_batch(dims, k, 1)
    before = amps.copy()
    cases = [((a,), h_matrix() if dims[a] == 2 else random_unitary(dims[a], rng))
             for a in range(len(dims))]
    cases += [((a,), H4) for a in range(len(dims)) if dims[a] == 4]
    cases += [((a, a + 1), random_unitary(dims[a] * dims[a + 1], rng))
              for a in range(len(dims) - 1)]
    for axes, mat in cases:
        want = apply_matrix_reference(amps, dims, axes, mat)
        got = backend.apply_matrix(amps, dims, axes, mat)
        assert np.abs(got - want).max() <= 1e-12, axes
        np.testing.assert_array_equal(amps, before)  # the input is only read
        assert not np.shares_memory(got, amps)


def _gathered(amps, dims):
    """``amps`` as a run holds them after two monomial gates: bitwise equal, in the array the
    second gather wrote."""
    shift = np.roll(np.eye(dims[0]), 1, axis=0)
    once = backend.apply_matrix(amps, dims, (0,), shift)
    twice = backend.apply_matrix(once, dims, (0,), shift.T)
    assert twice.tobytes() == amps.tobytes() and not np.shares_memory(twice, amps)
    return twice


@pytest.mark.parametrize("dims,k", LARGE)
@pytest.mark.parametrize("gathered", [False, True], ids=["plain", "gathered"])
def test_large_measurement_matches_the_reference(dims, k, gathered):
    # gathered: the register comes out of a run's gathers; the measurement still writes
    # fresh arrays
    amps = _random_batch(dims, k, 2)
    if gathered:
        amps = _gathered(amps, dims)
    labels = tuple(f"q{i}" for i in range(len(dims)))
    state = MixedRegister(dims, amps, labels)
    before = amps.copy()
    for target in labels:
        got = measure_enumerate(state, target)
        want = measure_reference(state, target)
        assert [b.outcomes[0][1] for b in got] == [m for m, _, _ in want]
        for b, (_, prob, ref) in zip(got, want):
            assert np.abs(b.probability - prob).max() <= 1e-12
            assert np.abs(b.state.amps - ref).max() <= 1e-12
        np.testing.assert_array_equal(state.amps, before)
        for x, y in itertools.combinations([b.state.amps for b in got] + [state.amps], 2):
            assert not np.shares_memory(x, y)


@pytest.mark.parametrize("dims,k", [((2, 4, 2), 1), ((2, 4, 2), 3), ((4, 2, 3), 1),
                                    ((2,) * 14, 2), ((4,) * 7, 1), ((2,) * 13, 3)])
def test_first_axis_weights_are_bitwise_the_gemv(dims, k):
    # measuring the first subsystem leaves nothing to sum over: the squares are the weights,
    # bitwise what the gemv of a one-row matrix gives (the loop reference takes that gemv)
    amps = _random_batch(dims, k, 3)
    labels = tuple(f"q{i}" for i in range(len(dims)))
    for batch in (amps, amps[:, 0]) if k == 1 else (amps,):
        state = MixedRegister(dims, batch, labels)
        got = measure_enumerate(state, labels[0])
        want = measure_loop_reference(state, labels[0])
        assert [b.outcomes[0][1] for b in got] == [m for m, _, _ in want]
        for b, (_, prob, ref) in zip(got, want):
            assert np.asarray(b.probability).tobytes() == np.asarray(prob).tobytes()
            assert b.state.amps.tobytes() == ref.tobytes()


def _suite_and_variants():
    """Every suite circuit on its basis inputs and 3 random ones, then every dropped-correction
    variant on 2 basis inputs and 1 random one."""
    rng = np.random.default_rng(77)
    for name, circuit, oracle in _protocol_suite():
        basis = basis_inputs(circuit)
        yield name, circuit, oracle, basis + random_inputs(circuit, 3, seed=11)
        for index, corrupted in _dropped_variants(circuit):
            picks = rng.choice(len(basis), size=2, replace=False)
            yield (f"{name} -#{index}", corrupted, oracle,
                   [basis[i] for i in picks] + random_inputs(corrupted, 1, seed=index))


def _reports(monkeypatch, configure):
    with monkeypatch.context() as patch:
        configure(patch)
        return {name: verify(circuit, oracle, inputs)
                for name, circuit, oracle, inputs in _suite_and_variants()}


@pytest.mark.parametrize("configure", [lambda patch: None, _blocked_everywhere],
                         ids=["default", "everywhere"])
def test_verify_reports_match_the_unowned_unblocked_kernels(monkeypatch, configure):
    want = _reports(monkeypatch, _unowned_unblocked)
    got = _reports(monkeypatch, configure)
    assert len(got) == 35 + 274
    assert sum(not r.passed for r in got.values()) == 274
    for name, report in got.items():
        ref = want[name]
        assert (report.passed, report.branches) == (ref.passed, ref.branches), name
        assert abs(report.min_fidelity - ref.min_fidelity) <= 1e-12, name
        fids = {(f.input_index, f.outcomes): f.fidelity for f in report.failures}
        ref_fids = {(f.input_index, f.outcomes): f.fidelity for f in ref.failures}
        assert fids.keys() == ref_fids.keys(), name
        assert all(abs(fids[key] - ref_fids[key]) <= 1e-12 for key in fids), name


def _cached_data(circuit):
    """Copies of the cached resource states and gate matrices the circuit uses, by identity."""
    cached = []
    for ins in circuit.instructions:
        if ins.kind in RESOURCE_KINDS:
            cached.append(_resource_amps(ins.dim or 2, len(ins.targets)))
        elif ins.kind == "LocalGate":
            cached.append(gate_unitary(ins.gate, ins.params).entries)
        elif ins.kind == "CondGate":
            cached += [gate_power(ins.gate, ins.params, value).entries
                       for value in range(1, ins.condition.mod)]
    return [(arr, arr.copy()) for arr in cached]


def _read_only(state):
    state.amps.flags.writeable = False
    return state


@pytest.mark.parametrize("configure", [lambda patch: None, _blocked_everywhere],
                         ids=["default", "everywhere"])
def test_callers_data_is_never_written(monkeypatch, configure):
    configure(monkeypatch)
    for name, circuit, oracle, inputs in _suite_and_variants():
        cached = _cached_data(circuit)
        frozen = [_read_only(MixedRegister(s.dims, s.amps.copy(), s.labels)) for s in inputs]
        assert (verify(circuit, oracle, frozen).to_json()
                == verify(circuit, oracle, inputs).to_json()), name
        batch = _read_only(MixedRegister(inputs[0].dims,
                                         np.stack([s.amps for s in inputs], axis=1),
                                         inputs[0].labels))
        before = batch.amps.copy()
        results = enumerate_branches(circuit, batch, merge_equal=True)
        np.testing.assert_array_equal(batch.amps, before)
        for x, y in itertools.combinations([r.state.amps for r in results], 2):
            assert not np.shares_memory(x, y), name
        for arr, copy in cached:
            np.testing.assert_array_equal(arr, copy)


@pytest.mark.parametrize("writeable", [True, False], ids=["writeable", "read-only"])
def test_a_run_never_writes_its_input(writeable):
    # a diagonal gate first, which a kernel writing in place would apply to the input (a dense
    # gate follows, so that the diagonal one runs as a step of its own); the run leaves the
    # input's writeable flag as the caller set it
    base = catalog.tagged("corpus")["dcnot"].build()
    first = tuple([Instruction("LocalGate", (base.inputs[0],), gate=gate) for gate in "ZH"])
    circuit = type(base)(base.layout, first + base.instructions, base.inputs, base.outputs)
    inputs = random_inputs(circuit, 3, seed=4)
    batch = MixedRegister(inputs[0].dims, np.stack([s.amps for s in inputs], axis=1),
                          inputs[0].labels)
    amps = batch.amps
    amps.flags.writeable = writeable
    before = amps.copy()
    other = MixedRegister(batch.dims, amps.copy(), batch.labels)  # the other flag
    other.amps.flags.writeable = not writeable
    want = enumerate_branches(circuit, other, merge_equal=True)
    got = enumerate_branches(circuit, batch, merge_equal=True)
    np.testing.assert_array_equal(amps, before)
    assert amps.flags.writeable == writeable
    assert [r.outcomes for r in got] == [r.outcomes for r in want]
    for r, w in zip(got, want):
        assert r.state.amps.tobytes() == w.state.amps.tobytes()
        assert r.probability.tobytes() == w.probability.tobytes()


# ---------------------------------------------------------------------------
# the measurement and resource kernels on large registers, against the references
# ---------------------------------------------------------------------------

# (dims, batch width), each register 128 KiB or more: powers of two and mixed dimensions
KERNEL_CASES = [((2,) * 13, 1), ((2, 3, 4, 2, 4, 2, 4, 2, 4), 1),
                ((2,) * 12, 2), ((2, 3, 4, 2, 4, 2, 4, 2, 2), 2),
                ((4,) * 6, 4), ((3, 2, 4, 2, 4, 2, 4, 2), 4),
                ((2,) * 10, 16), ((2, 3, 4, 2, 4, 2, 4), 16)]


@pytest.mark.parametrize("dims,k", KERNEL_CASES)
@pytest.mark.parametrize("gathered", [False, True], ids=["plain", "gathered"])
def test_large_measurement_kernel_is_bitwise_the_broadcast(dims, k, gathered):
    # the broadcast kernel of every register size, bitwise the one-outcome-at-a-time loop;
    # gathered: the register comes out of a run's gathers, and each kept outcome then goes
    # through a gather of its own, as a correction would, leaving the others intact
    amps = _random_batch(dims, k, 4)
    # column 0 has no weight on the first outcome of the first subsystem: pruned there,
    # and with k = 1 that outcome is dropped
    amps[:amps.shape[0] // dims[0], 0] = 0
    amps /= np.linalg.norm(amps, axis=0)
    assert amps.nbytes >= 2 ** 17
    labels = tuple(f"q{i}" for i in range(len(dims)))
    for batch in (amps, amps[:, 0].copy()) if k == 1 else (amps,):
        if gathered:
            batch = _gathered(batch, dims)
        state = MixedRegister(dims, batch, labels)
        before = batch.copy()
        for axis in range(len(dims)):
            pre, d, post = (int(np.prod(dims[:axis])), dims[axis],
                            int(np.prod(dims[axis + 1:])))
            kept, probs, alive, outs = measure_amps(batch, pre, d, post)
            want = measure_loop_reference(state, labels[axis])
            assert kept == [outcome for outcome, _, _ in want], axis
            if axis == 0:
                assert kept == list(range(k == 1, d)) and not alive[0, 0]
            np.testing.assert_array_equal(alive, probs > 0)
            assert len(outs) == len(kept)
            for outcome, out, (_, prob, ref) in zip(kept, outs, want):
                assert probs[outcome].tobytes() == np.asarray(prob, float).reshape(-1).tobytes()
                assert out.shape == ref.shape and out.tobytes() == ref.tobytes(), axis
            np.testing.assert_array_equal(batch, before)
            for x, y in itertools.combinations(list(outs) + [batch], 2):
                assert not np.shares_memory(x, y)
            if gathered:
                out_dims = dims[:axis] + dims[axis + 1:]
                shift = np.roll(np.eye(out_dims[0]), 1, axis=0)
                shifted = [backend.apply_matrix(out, out_dims, (0,), shift) for out in outs]
                for got, out, (_, _, ref) in zip(shifted, outs, want):
                    assert got.tobytes() == backend.apply_matrix(
                        ref, out_dims, (0,), shift).tobytes(), axis
                    assert out.tobytes() == ref.tobytes(), axis


RESOURCES = {  # amplitude vectors of b, with runs of zeros inside, at the ends or none
    "bell": np.array([1, 0, 0, 1]) / np.sqrt(2),
    "ghz3": np.eye(8)[[0, 7]].sum(axis=0) / np.sqrt(2),
    "qudit pair": np.eye(16)[[0, 5, 10, 15]].sum(axis=0) / 2,
    "zero ends": np.array([0, 0.6, 0.8j, 0]),
    "dense": np.exp(2j * np.pi * np.arange(3) / 3) / np.sqrt(3),
}


@pytest.mark.parametrize("k", [1, 2, 4, 16])
@pytest.mark.parametrize("resource", sorted(RESOURCES))
def test_large_resource_kernel_equals_the_broadcast(k, resource):
    # the broadcast kernel of every register size, against np.kron of each column
    b = RESOURCES[resource].astype(np.complex128)
    amps = _random_batch((2,) * 12, k, 5)
    for a in (amps, amps[:, 0].copy()) if k == 1 else (amps,):
        assert a.nbytes * b.size >= 2 ** 17
        before, b_before = a.copy(), b.copy()
        got = tensor_amps(a, b)
        want = np.stack([np.kron(column, b) for column in a.reshape(a.shape[0], -1).T], axis=1)
        np.testing.assert_array_equal(got.reshape(want.shape), want)
        assert got.shape == (a.shape[0] * b.size,) + a.shape[1:]
        np.testing.assert_array_equal(a, before)  # only read
        assert not np.shares_memory(got, a)
        np.testing.assert_array_equal(b, b_before)


def _branch(amps, rows=None):
    ones = np.ones(amps.shape[1])
    return _Branch(amps, ones, (), {}, 1, ones > 0, rows)


@pytest.mark.parametrize("delta,close", [  # in units of MERGE_ATOL
    (0.8 * (1 + 1j), False),  # each part under 1, the modulus 1.131: decided by the modulus
    (0.72 * (1 - 1j), False),  # modulus 1.018
    (0.75 + 0.6j, True),  # modulus 0.960
    (0.9, True),  # modulus 0.9
    (0.70 * (1 + 1j), True),  # each part under 1/sqrt(2): decided by the parts alone
    (-1.1, False),  # a part over 1: decided by the parts alone
    (1.1j, False),
])
def test_distance_decides_as_the_complex_modulus(delta, close):
    # the merge distance of two branches, on the same rows and on a sparse and a dense branch
    a = _random_batch((2,) * 14, 4, 6)
    rows = backend.BLOCK_AMPLITUDES // 4
    every = _Support(np.arange(a.shape[0], dtype=np.intp), a.shape[0])
    for where in ((5, 1), (5 * rows + 3, 2), (a.shape[0] - 1, 3)):  # first, middle, last block
        b = a.copy()
        b[where] += delta * MERGE_ATOL
        # an earlier amplitude that only its modulus shows to be close
        b[rows + 7, 0] += (0.75 + 0.5j) * MERGE_ATOL
        want = np.abs(a - b).max() <= MERGE_ATOL
        assert want == close, where
        for x, y in ((a, b), (b, a)):
            merged = _merge([_branch(x), _branch(y)], ())
            assert len(merged) == (1 if close else 2), where
            assert merged[0].weight == (2 if close else 1), where
            assert (_gap(_branch(x, every), _branch(y)) <= MERGE_ATOL) == close, where
            assert (_gap(_branch(x), _branch(y, every)) <= MERGE_ATOL) == close, where
