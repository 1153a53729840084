"""Row-sparse branches: a branch that holds only the rows a GHZ resource reaches gives the
branches of the dense per-branch loop, and never holds more rows than its plan's bound."""

import gc
import importlib
import math
import tracemalloc

import numpy as np
import pytest
from conftest import cap_builds, enumerate_reference
from test_acceptance import _protocol_suite

from distgates import MixedRegister, backend, catalog, enumerate_branches, steps
from distgates.circuit import RESOURCE_KINDS
from distgates.simulate import MAX_BRANCHES, MERGE_ATOL, _merge, compile_plan, unmerged_branch_bound
from distgates.steps import _Branch, _Support
from distgates.statevec import measure_amps, measure_rows, split_rows, tensor_amps
from distgates.verify import OracleSpec, random_inputs, verify

verify_module = importlib.import_module("distgates.verify")  # the package attribute is the function

# the five widest CLI shapes, as `distgates compile` builds them
CLI_WIDE = [
    ("gcz n=12/6 pairwise", lambda: catalog.gcz(12, 6, "pairwise")),
    ("gcz n=10/5 pairwise", lambda: catalog.gcz(10, 5, "pairwise")),
    ("gcz n=9/3 fanout", lambda: catalog.gcz(9, 3, "fanout")),
    ("gms n=7 fanout", lambda: catalog.gms(7, 7, math.pi / 3, "fanout")),
    ("qudit gcz n=6/3", lambda: catalog.qudit_gcz(6, 3)),
]


def _variants(circuit):
    """The circuit with each of its CondGates dropped in turn."""
    for i, ins in enumerate(circuit.instructions):
        if ins.kind == "CondGate":
            yield i, type(circuit)(circuit.layout, circuit.instructions[:i]
                                   + circuit.instructions[i + 1:], circuit.inputs, circuit.outputs)


def _everything():
    """(name, circuit) of the corpus, the 35 suite circuits and their 274 variants."""
    cases = [(f"corpus {name}", c) for name, c in catalog.circuits("corpus").items()]
    for name, circuit, _ in _protocol_suite():
        cases.append((name, circuit))
        cases += [(f"{name} -#{i}", v) for i, v in _variants(circuit)]
    return cases


def _batch(circuit, k=2, seed=3):
    inputs = random_inputs(circuit, k, seed=seed)
    return MixedRegister(inputs[0].dims, np.stack([s.amps for s in inputs], axis=1),
                         inputs[0].labels)


def _recording(plan, rows: list):
    """``plan`` with every step wrapped to append each branch's held row count to ``rows``."""
    def wrap(step):
        def run(frontier, owned, merge):
            frontier = step(frontier, owned, merge)
            rows.extend(br.amps.shape[0] for br in frontier)
            return frontier
        return run
    return plan._replace(steps=tuple((step and wrap(step), live) for step, live in plan.steps))


def test_equivalence_cases_cover_the_corpus_suite_and_every_variant():
    cases = _everything()
    assert len(cases) == len(catalog.tagged("corpus")) + 35 + 274


def _holds_supports(circuit) -> bool:
    """Whether a run of the circuit holds branches on supports: it has a sparse resource, whose
    gadget's build runs on supports, as do its steps when it stays explicit or runs unmerged."""
    return any(steps._sparse(ins.dim or 2, len(ins.targets))
               for ins in circuit.instructions if ins.kind in RESOURCE_KINDS)


@pytest.mark.parametrize("part", range(4))
def test_sparse_branches_match_the_per_branch_loop(part):
    # merging on everywhere; off wherever the branch budget allows, except on a variant whose
    # runs hold no branch on a support: those run only the dense kernels, and their
    # unmerged reference runs would take about 50 s
    cases = _everything()[part::4]
    sparse = 0
    for name, circuit in cases:
        batch = _batch(circuit)
        plan = compile_plan(circuit)
        rowed = _holds_supports(circuit)
        sparse += rowed
        for merge in (True, False):
            if not merge and (unmerged_branch_bound(circuit) > MAX_BRANCHES
                              or "-#" in name and not rowed):
                continue
            got = enumerate_branches(circuit, batch, merge_equal=merge, plan=plan)
            want = enumerate_reference(circuit, batch, merge)
            label = f"{name} merge={merge}"
            assert [br.outcomes for br in got] == [w[0] for w in want], label
            assert [br.weight for br in got] == [w[3] for w in want], label
            for br, (_, prob, state, _, alive) in zip(got, want):
                np.testing.assert_array_equal(br.alive, alive, err_msg=label)
                assert np.abs(br.probability - prob).max() <= 1e-12, label
                assert (br.state.labels, br.state.dims) == (state.labels, state.dims), label
                assert np.abs(br.state.amps - state.amps).max() <= 1e-12, label
    assert sparse > 0  # each part runs some circuits on supports


def _support_branch(rows, amps, size, weight=1):
    k = amps.shape[1]
    support = None if len(rows) == size else _Support(np.asarray(rows, np.intp), size)
    return _Branch(amps, np.full(k, 0.5), (), {}, weight, np.ones(k, dtype=bool), support)


def test_merge_reads_a_missing_row_as_an_explicit_zero():
    rng = np.random.default_rng(2)
    amps = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    with_zero = np.insert(amps, 1, 0.9 * MERGE_ATOL, axis=0)  # rows 1, 4, 5, 7 of 8
    merged = _merge([_support_branch([1, 5, 7], amps, 8),
                     _support_branch([1, 4, 5, 7], with_zero, 8, weight=2)], ())
    assert len(merged) == 1 and merged[0].weight == 3
    np.testing.assert_array_equal(merged[0].prob, [1.0, 1.0])
    # and against a dense branch holding the same state
    dense = np.zeros((8, 2), complex)
    dense[[1, 5, 7]] = amps
    merged = _merge([_support_branch(range(8), dense, 8),
                     _support_branch([1, 5, 7], amps, 8, weight=4)], ())
    assert len(merged) == 1 and merged[0].weight == 5


def test_merge_keeps_branches_apart_on_a_row_one_of_them_lacks():
    rng = np.random.default_rng(3)
    amps = rng.standard_normal((3, 2)) + 1j * rng.standard_normal((3, 2))
    extra = np.insert(amps, 1, [0.0, 1.1 * MERGE_ATOL], axis=0)  # rows 1, 4, 5, 7 of 8
    frontier = [_support_branch([1, 5, 7], amps, 8), _support_branch([1, 4, 5, 7], extra, 8)]
    assert _merge(frontier, ()) == frontier
    dense = np.zeros((8, 2), complex)
    dense[[1, 5, 7]] = amps
    dense[0, 1] = 1.1 * MERGE_ATOL
    frontier = [_support_branch([1, 5, 7], amps, 8), _support_branch(range(8), dense, 8)]
    assert _merge(frontier, ()) == frontier


@pytest.mark.parametrize("gate", ["Z", "CZ", "X", "CNOT", "H", "CSUM4", "H4", "dense2"])
def test_row_kernels_equal_the_dense_kernel_on_the_held_rows(gate):
    from distgates.gates import gate_unitary
    rng = np.random.default_rng(len(gate))
    if gate == "dense2":
        q, _ = np.linalg.qr(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        mat, arity = q, (2, 2)
    else:
        u = gate_unitary(gate)
        mat, arity = u.entries, u.arity
    dims = (2, 4, 2, 4, 2, 4)
    for axes in [tuple(a for a in range(6) if dims[a] == arity[0])[:len(arity)],
                 tuple(a for a in reversed(range(6)) if dims[a] == arity[-1])[:len(arity)]]:
        if tuple(dims[a] for a in axes) != arity:
            continue
        size = math.prod(dims)
        rows = np.sort(rng.choice(size, size // 5, replace=False))
        dense = np.zeros((size, 3), complex)
        dense[rows] = rng.standard_normal((rows.size, 3)) + 1j * rng.standard_normal((rows.size, 3))
        for _ in range(2):  # the second time on the rows the first reached
            want = backend.apply_matrix(dense, dims, axes, mat)
            out_rows, plan = backend.row_plan(mat, backend.row_layout(dims, axes, rows))
            held = dense[rows]
            got = backend.apply_rows(held, mat, plan)
            np.testing.assert_array_equal(held, dense[rows])  # only read
            assert np.all(np.diff(out_rows) > 0)
            outside = np.ones(size, bool)
            outside[out_rows] = False
            assert not want[outside].any(), axes  # rows outside the support are exact zeros
            np.testing.assert_allclose(got, want[out_rows], atol=1e-15, rtol=0)
            dense, rows = want, out_rows


def test_measure_rows_equals_measure_amps_on_the_held_rows():
    rng = np.random.default_rng(9)
    for pre, d, post in ((3, 4, 8), (1, 2, 64), (32, 2, 1)):
        size = pre * d * post
        for count in (size // 7, size // 2):
            rows = np.sort(rng.choice(size, count, replace=False))
            dense = np.zeros((size, 2), complex)
            dense[rows] = rng.standard_normal((count, 2)) + 1j * rng.standard_normal((count, 2))
            dense /= np.linalg.norm(dense, axis=0)
            kept, probs, alive, outs = measure_amps(dense, pre, d, post)
            plan, outcome_rows = split_rows(rows, d, post)
            got = measure_rows(dense[rows], d, plan)
            assert got[0] == kept
            np.testing.assert_allclose(got[1], probs, atol=1e-15, rtol=0)
            np.testing.assert_array_equal(got[2], alive)
            for outcome, want, have in zip(kept, outs, got[3]):
                held = outcome_rows[outcome]
                outside = np.ones(pre * post, bool)
                outside[held] = False
                assert not want[outside].any()
                np.testing.assert_allclose(have, want[held], atol=1e-15, rtol=0)


def _all_circuits():
    """(name, circuit) of everything the bound tests cover: ``_everything`` and the CLI shapes."""
    return _everything() + [(name, build()) for name, build in CLI_WIDE]


def test_no_branch_holds_more_rows_than_the_bound():
    for name, circuit in _all_circuits():
        plan = compile_plan(circuit)
        assert plan.row_bound <= plan.simulated_peak <= plan.peak, name
        rows = []
        enumerate_branches(circuit, _batch(circuit), merge_equal=True,
                           plan=_recording(plan, rows))
        assert max(rows) <= plan.row_bound, name


@pytest.mark.parametrize("build", [lambda: catalog.gcz(12, 6, "pairwise"),
                                   lambda: catalog.tagged("corpus")["gcz6_2n_teleport"].build()],
                         ids=["gcz12_6n_pairwise", "gcz6_2n_teleport_all"])
def test_without_a_sparse_resource_the_bound_is_the_simulated_peak(build):
    circuit = build()
    assert not any(steps._sparse(ins.dim or 2, len(ins.targets))
                   for ins in circuit.instructions if ins.kind in RESOURCE_KINDS)
    plan = compile_plan(circuit)
    assert plan.row_bound == plan.simulated_peak


def test_wide_gms_fanout_runs_as_one_chunk(monkeypatch):
    circuit = catalog.gms(7, 7, math.pi / 3, "fanout")
    plan = compile_plan(circuit)
    # every gadget contracts, so no step builds more than the data register
    assert (plan.peak, plan.simulated_peak, plan.row_bound) == (2 ** 14, 2 ** 7, 2 ** 7)
    calls = []

    def counting(*args, **kwargs):
        calls.append(args[1].amps.shape[1])
        return enumerate_branches(*args, **kwargs)

    monkeypatch.setattr(verify_module, "enumerate_branches", counting)
    report = verify(circuit, OracleSpec("gms", theta=math.pi / 3), random_inputs(circuit, 16))
    assert report.passed and calls == [16]


def test_wide_gms_fanout_verify_stays_small_in_memory():
    circuit = catalog.gms(7, 7, math.pi / 3, "fanout")
    oracle, inputs = OracleSpec("gms", theta=math.pi / 3), random_inputs(circuit, 16)
    verify(circuit, oracle, inputs)  # the caches warm
    gc.collect()
    tracemalloc.start()
    try:
        assert verify(circuit, oracle, inputs).passed
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 2 ** 20


def _verify_gms_fanouts(count: int):
    """Verify ``count`` GMS n=5 fan-outs, each at its own angle, so each brings new gate
    matrices and with them new row plans; returns the cache's largest size in bytes."""
    most = 0
    for i in range(count):
        theta = 0.1 + 0.2 * i
        circuit = catalog.gms(5, 5, theta, "fanout")
        assert verify(circuit, OracleSpec("gms", theta=theta),
                      random_inputs(circuit, 2, seed=i)).passed
        cache = steps._ROWS
        assert cache.nbytes == sum(size for _, size in cache.entries.values())
        assert cache.nbytes <= cache.limit or len(cache.entries) == 1
        most = max(most, cache.nbytes)
    return most


def test_row_plans_of_many_circuits_stay_under_the_cache_limit(monkeypatch):
    cap_builds(monkeypatch, 512)  # the GHZ(5) layer runs instruction by instruction, on supports
    limit = 16 * 1024
    monkeypatch.setattr(steps, "_ROWS", steps._RowCache(2 ** 40))
    assert _verify_gms_fanouts(12) > 4 * limit  # what an unbounded cache would hold
    monkeypatch.setattr(steps, "_ROWS", steps._RowCache(limit))
    assert _verify_gms_fanouts(12) <= limit


def _two_kinds(dims, rows, values=None, seed=0, k=2):
    """A dense branch and a sparse branch holding one random state on ``rows`` of a register
    over ``dims``, with the symbol ``values``."""
    size = math.prod(dims)
    rng = np.random.default_rng(seed)
    held = rng.standard_normal((rows.size, k)) + 1j * rng.standard_normal((rows.size, k))
    held /= np.linalg.norm(held, axis=0)
    dense = np.zeros((size, k), complex)
    dense[rows] = held
    return [_Branch(amps, np.full(k, 0.5), (), dict(values or {}), 1, np.ones(k, bool), support)
            for amps, support in ((dense, None), (held, _Support(rows.copy(), size)))]


def _scattered(br):
    if br.rows is None:
        return br.amps
    full = np.zeros((br.rows.size, br.amps.shape[1]), complex)
    full[br.rows.rows] = br.amps
    return full


def _same_rows(got, want):
    """Whether the supports ``got`` and ``want`` (None: dense) hold the same rows."""
    if got is None or want is None:
        return got is want
    return got.size == want.size and np.array_equal(got.rows, want.rows)


def test_one_frontier_holds_dense_and_sparse_branches_for_every_step_kind():
    # each step picks the register kernel or the row kernel per branch; the sparse branch,
    # scattered, must equal the dense one, on the support the row helpers give
    from distgates.gates import gate_unitary
    from distgates.simulate import _Gadget
    from distgates.steps import (_cond_step, _gadget_step, _gate_step, _linked, _measure_step,
                                 _resource_amps, _resource_step, _root, _split, _tensored)
    dims = (2, 4, 2)
    size = math.prod(dims)
    rows = np.array([1, 6, 9, 12])
    rows.flags.writeable = False  # as a support holds them
    z, x, h = (gate_unitary(g) for g in "ZXH")
    gates = [("CZ", (0, 2)), ("X4", (1,)), ("CNOT", (2, 0)), ("H", (2,))]
    for name, axes in gates:  # diagonal, monomial, monomial, dense
        gate = gate_unitary(name)
        dense, sparse = _gate_step(dims, axes, gate)(_two_kinds(dims, rows), False, True)
        assert dense.rows is None, name
        want = _linked(_Support(rows, size), gate.entries, dims, axes)[0]
        assert want is not None and _same_rows(sparse.rows, want), name
        np.testing.assert_allclose(_scattered(sparse), dense.amps, atol=1e-15, rtol=0)

    step = _cond_step(dims, (2,), ("m",), 2, (x,))
    for value in (0, 1):
        dense, sparse = step(_two_kinds(dims, rows, {"m": value}), False, True)
        want = _Support(rows, size)
        if value:
            want = _linked(want, x.entries, dims, (2,))[0]
        assert dense.rows is None and _same_rows(sparse.rows, want), value
        np.testing.assert_allclose(_scattered(sparse), dense.amps, atol=1e-15, rtol=0)

    for d, n in ((2, 3), (2, 2)):  # a sparse GHZ(3) resource, then a dense Bell pair
        factor = _resource_amps(d, n)
        frontier = _two_kinds(dims, rows)
        want = tensor_amps(frontier[0].amps, factor)
        dense, sparse = _resource_step(factor, d, n, size)(frontier, False, True)
        assert _same_rows(dense.rows, _root(size, d, n) if n == 3 else None), n
        assert _same_rows(sparse.rows, _tensored(_Support(rows, size), d, n)), n
        np.testing.assert_array_equal(_scattered(dense), want)
        np.testing.assert_allclose(_scattered(sparse), want, atol=1e-15, rtol=0)

    forked = _measure_step(dims, 1, "m")(_two_kinds(dims, rows), False, True)
    half = len(forked) // 2
    supports = _split(_Support(rows, size), 4, 2)[1]
    assert half and [br.outcomes for br in forked[:half]] == [br.outcomes for br in forked[half:]]
    for dense, sparse in zip(forked[:half], forked[half:]):
        outcome = dense.outcomes[-1][1]
        assert dense.rows is None and _same_rows(sparse.rows, supports[outcome]), outcome
        np.testing.assert_allclose(_scattered(sparse), dense.amps, atol=1e-15, rtol=0)
        np.testing.assert_allclose(sparse.prob, dense.prob, atol=1e-15, rtol=0)

    groups = (((0,), z.entries, 1, 0.5), ((1,), h.entries, 1, 0.5))
    step = _gadget_step(_Gadget(groups, {}, True), dims, (2,), ("m",), ())
    forked = step(_two_kinds(dims, rows), False, True)
    assert len(forked) == 4
    for (dense, sparse), (_, u, _, _) in zip(zip(forked[:2], forked[2:]), groups):
        assert dense.values == sparse.values and dense.rows is None
        assert _same_rows(sparse.rows, _linked(_Support(rows, size), u, dims, (2,))[0])
        np.testing.assert_allclose(_scattered(sparse), dense.amps, atol=1e-15, rtol=0)
