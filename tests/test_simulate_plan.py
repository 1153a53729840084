"""The compiled enumeration plan: the same branches as the per-branch loop, and every
instruction check made before any kernel runs."""

import importlib
import math

import numpy as np
import pytest
from conftest import cap_builds, enumerate_reference

from distgates import (Condition, DistCircuit, Instruction, MixedRegister, NodeLayout, backend,
                       catalog, enumerate_branches, infer_dims, peak_register_dim, simulate,
                       steps)
from distgates.simulate import compile_plan, unmerged_branch_bound
from distgates.statevec import DEFAULT_MAX_DIM, random_register
from distgates.verify import OracleSpec, basis_inputs, random_inputs, verify

verify_module = importlib.import_module("distgates.verify")  # the package attribute is the function

UNDER_CAP = [name for name, entry in catalog.tagged("golden").items()
             if peak_register_dim(entry.build()) <= DEFAULT_MAX_DIM]
UNMERGED_BRANCHES = 64  # merge-off runs stop at the longest prefix forking this many


def _assert_same_branches(got, want, name, contracted=False, rowed=False):
    """Records, weights, alive masks, labels and dims exactly; amplitudes and probabilities
    within 1e-15, or within 1e-14 and 1e-13 when the plan ``contracted`` a gadget, whose
    arithmetic differs from the per-instruction loop's and whose merged probabilities are
    summed in another order. When branches hold only some register rows (``rowed``), the
    probabilities are within 1e-14: a measurement sums the held rows' squares, where the
    dense kernel's BLAS sum groups them with the zero rows between them, so a branch's
    probability may differ in its last bit, and a merged one sums up to 2^18 of them."""
    amp_tol, prob_tol = (1e-14, 1e-13) if contracted else (1e-15, 1e-14 if rowed else 1e-15)
    assert [br.outcomes for br in got] == [w[0] for w in want], name
    assert [br.weight for br in got] == [w[3] for w in want], name
    for br, (_, prob, state, _, alive) in zip(got, want):
        if alive is None:
            assert br.alive is None, name
        else:
            np.testing.assert_array_equal(br.alive, alive, err_msg=name)
        assert np.max(np.abs(np.subtract(br.probability, prob))) <= prob_tol, name
        assert (br.state.labels, br.state.dims) == (state.labels, state.dims), name
        assert br.state.amps.shape == state.amps.shape, name
        assert np.max(np.abs(br.state.amps - state.amps), initial=0.0) <= amp_tol, name


def _longest_prefix(circuit, branches):
    """The most instructions whose unmerged enumeration forks at most ``branches`` branches."""
    upto = len(circuit.instructions)
    while unmerged_branch_bound(circuit, upto) > branches:
        upto -= 1
    return upto


@pytest.mark.parametrize("name", UNDER_CAP)
def test_plan_matches_the_per_branch_loop(name):
    circuit = catalog.tagged("golden")[name].build()
    inputs = random_inputs(circuit, 3, seed=11) + basis_inputs(circuit)[-1:]
    batch = MixedRegister(inputs[0].dims, np.stack([s.amps for s in inputs], axis=1),
                          inputs[0].labels)
    n = len(circuit.instructions)
    unmerged = _longest_prefix(circuit, UNMERGED_BRANCHES)
    runs = [(True, None), (True, n // 3), (True, 2 * n // 3), (False, unmerged)]
    for state in (inputs[0], batch):
        for merge, upto in runs:
            label = f"{name} k={state.amps.ndim} merge={merge} upto={upto}"
            plan = compile_plan(circuit, upto)
            got = enumerate_branches(circuit, state, merge_equal=merge, upto=upto, plan=plan)
            _assert_same_branches(got, enumerate_reference(circuit, state, merge, upto), label,
                                  bool(plan.gadgets), plan.row_bound < plan.simulated_peak)


def test_every_entry_under_the_cap_is_compared():
    assert len(UNDER_CAP) > 100


def test_rare_instruction_forms_match_the_per_branch_loop():
    # unnamed measurements record "_m<index>"; a ClassicalSend that carries a
    # condition keeps its symbols live until it has run, and a merge after it
    # then merges the branches that differed only in them
    layout = NodeLayout(("A", "B"), {"a": "A", "b": "B", "e1": "A", "e2": "B"})
    circuit = DistCircuit(layout, PREFIX + (
        Instruction("CreateBell", ("f1", "f2"), parties=("A", "B")),
        Instruction("Measure", ("f1",)),
        Instruction("Measure", ("f2",)),
        Instruction("ClassicalSend", parties=("B", "A"), symbol="n",
                    condition=Condition(("n",))),
    ), ("a", "b"), ("a", "b"))
    start = MixedRegister.basis(("a", "b"), (2, 2), (1, 1))
    for merge in (False, True):
        got = enumerate_branches(circuit, start, merge_equal=merge)
        _assert_same_branches(got, enumerate_reference(circuit, start, merge), f"merge={merge}")
    assert {symbol for br in got for symbol, _ in br.outcomes} == {"m", "n", "_m9", "_m10"}
    assert [br.weight for br in got] == [8]  # no condition reads a symbol any more
    before_send = enumerate_branches(circuit, start, merge_equal=True, upto=11)
    assert [br.weight for br in before_send] == [4, 4]  # n is still live


# ---------------------------------------------------------------------------
# instruction checks, made when the plan is compiled
# ---------------------------------------------------------------------------

LAYOUT = NodeLayout(("A", "B"), {"a": "A", "b": "B", "e1": "A", "e2": "B"})

# a teleported CZ of a and b, which runs every kind of kernel: a resource, a gate, a
# measurement and a conditioned correction, so that a check made per branch would
# come too late
PREFIX = (
    Instruction("CreateBell", ("e1", "e2"), parties=("A", "B")),
    Instruction("LocalGate", ("a", "e1"), gate="CNOT"),
    Instruction("Measure", ("e1",), outcome="m"),
    Instruction("CondGate", ("e2",), gate="X", condition=Condition(("m",))),
    Instruction("LocalGate", ("e2", "b"), gate="CZ"),
    Instruction("LocalGate", ("e2",), gate="H"),
    Instruction("Measure", ("e2",), outcome="n"),
    Instruction("CondGate", ("a",), gate="Z", condition=Condition(("n",))),
)

# the circuit rules, which only the compile walk can decide; an instruction refuses its own
# defects when it is built (tests/test_rules.py)
BAD = {
    "arity against target dims": (Instruction("LocalGate", ("b",), gate="X4"),
                                  "subsystem 'b' used with dimensions 2 and 4"),
    "condition on an unmeasured symbol": (
        Instruction("CondGate", ("a",), gate="X", condition=Condition(("m", "zz"))),
        "instruction 8: condition references unmeasured symbol 'zz'"),
    "send conditioned on an unmeasured symbol": (
        Instruction("ClassicalSend", parties=("A", "B"), symbol="m", condition=Condition(("zz",))),
        "instruction 8: condition references unmeasured symbol 'zz'"),
    "gate on an unknown label": (Instruction("LocalGate", ("zz",), gate="H"),
                                 "unknown subsystem label 'zz'"),
    "gate on a measured label": (Instruction("LocalGate", ("e1",), gate="H"),
                                 "unknown subsystem label 'e1'"),
    "unknown measured label": (Instruction("Measure", ("zz",), outcome="z"),
                               "unknown subsystem label 'zz'"),
    "resource label collision": (
        Instruction("CreateBell", ("a", "f"), parties=("A", "B")),
        "label collision: \\{'a'\\}"),
}


# the same checks while the walk is reading PREFIX's gadget: the bad instruction right after
# its Measure e1, before the CondGate that closes it
INSIDE = {
    "gate on the measured share": (Instruction("LocalGate", ("e1",), gate="H"),
                                   "unknown subsystem label 'e1'"),
    "condition on an unmeasured symbol": (
        Instruction("CondGate", ("e2",), gate="X", condition=Condition(("zz",))),
        "instruction 3: condition references unmeasured symbol 'zz'"),
    "send conditioned on an unmeasured symbol": (
        Instruction("ClassicalSend", parties=("A", "B"), symbol="m", condition=Condition(("zz",))),
        "instruction 3: condition references unmeasured symbol 'zz'"),
}
CASES = sorted(BAD) + [f"inside: {case}" for case in sorted(INSIDE)]


def bad_circuit(case: str):
    """``(circuit, message)`` of a key of ``CASES``: the valid prefix with the bad instruction
    after its gadget (``BAD``) or inside it (``INSIDE``)."""
    if case in BAD:
        bad, message = BAD[case]
        return DistCircuit(LAYOUT, PREFIX + (bad,), ("a", "b"), ("a", "b")), message
    bad, message = INSIDE[case.removeprefix("inside: ")]
    return DistCircuit(LAYOUT, PREFIX[:3] + (bad,) + PREFIX[3:], ("a", "b"), ("a", "b")), message


def _forbid_kernels(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("a kernel ran before the instruction checks")

    monkeypatch.setattr(backend, "apply_matrix", forbidden)
    monkeypatch.setattr(backend, "apply_rows", forbidden)
    for kernel in ("measure_amps", "measure_rows", "tensor_amps"):
        monkeypatch.setattr(steps, kernel, forbidden)


def test_the_valid_prefix_runs():
    circuit = DistCircuit(LAYOUT, PREFIX, ("a", "b"), ("a", "b"))
    report = verify(circuit, OracleSpec("gcz"), basis_inputs(circuit))
    assert report.passed and report.branches == 16


@pytest.mark.parametrize("case", CASES)
def test_instruction_checks_raise_before_any_kernel(case, monkeypatch):
    circuit, message = bad_circuit(case)
    state = random_register(("a", "b"), (2, 2), seed=3)  # random_inputs would check the dims
    _forbid_kernels(monkeypatch)
    with pytest.raises(ValueError, match=message):
        compile_plan(circuit)
    for merge in (False, True):
        with pytest.raises(ValueError, match=message):
            enumerate_branches(circuit, state, merge_equal=merge)
        with pytest.raises(ValueError, match=message):
            verify(circuit, OracleSpec("gcz"), [state], merge=merge)


def test_verify_checks_the_final_register_before_any_kernel(monkeypatch):
    circuit = DistCircuit(LAYOUT, PREFIX, ("a", "b"), ("a", "e2"))
    _forbid_kernels(monkeypatch)
    for inputs in ([], [random_register(("a", "b"), (2, 2), seed=3)]):
        with pytest.raises(ValueError, match="every branch leaves subsystems \\('a', 'b'\\)"):
            verify(circuit, OracleSpec("gcz"), inputs)


def test_a_prefix_is_checked_up_to_its_end():
    bad, _ = BAD["gate on an unknown label"]
    circuit = DistCircuit(LAYOUT, PREFIX + (bad,), ("a", "b"), ("a", "b"))
    prefix = compile_plan(circuit, upto=len(PREFIX))
    whole = compile_plan(DistCircuit(LAYOUT, PREFIX, ("a", "b"), ("a", "b")))
    assert (len(prefix.steps), prefix.gadgets) == (len(whole.steps), whole.gadgets)


def test_a_plan_is_tied_to_its_circuit_and_prefix():
    circuit = catalog.tagged("corpus")["dcsum4"].build()
    other = catalog.tagged("corpus")["dcsum4"].build()
    plan = compile_plan(circuit)
    state = random_inputs(circuit, 1)[0]
    assert enumerate_branches(circuit, state, plan=plan)
    for args, kwargs in (((other, state), {}), ((circuit, state), {"upto": 3})):
        with pytest.raises(ValueError, match="another circuit or instruction prefix"):
            enumerate_branches(*args, plan=plan, **kwargs)


def test_dims_are_inferred_once_per_circuit_object(monkeypatch):
    circuit = catalog.tagged("corpus")["dcsum4"].build()
    walked = []
    arity = simulate.gate_arity
    monkeypatch.setattr(simulate, "gate_arity", lambda name: walked.append(name) or arity(name))
    dims = infer_dims(circuit)
    gates = len(walked)
    assert gates == sum(ins.kind in ("LocalGate", "CondGate") for ins in circuit.instructions)
    again = infer_dims(circuit)
    assert again == dims and again is not dims
    dims[circuit.inputs[0]] = 99  # a caller's dict is its own
    assert infer_dims(circuit) == again
    inputs = basis_inputs(circuit) + random_inputs(circuit, 2)
    plan = compile_plan(circuit)
    assert verify(circuit, OracleSpec("csum4"), inputs).passed
    assert peak_register_dim(circuit) == plan.peak
    assert unmerged_branch_bound(circuit) == plan.branch_bound
    assert len(walked) == gates
    plan.dims[circuit.inputs[0]] = 99
    assert infer_dims(circuit) == again
    copy = DistCircuit(circuit.layout, circuit.instructions, circuit.inputs, circuit.outputs)
    assert infer_dims(copy) == again and len(walked) == 2 * gates


def test_conditioned_powers_are_resolved_once_per_value(monkeypatch):
    circuit = catalog.tagged("corpus")["dcsum4"].build()
    conditioned = [ins for ins in circuit.instructions if ins.kind == "CondGate"]
    calls = []

    def counting(name, params, exponent):
        calls.append((name, exponent))
        return power(name, params, exponent)

    power = simulate.gate_power
    monkeypatch.setattr(simulate, "gate_power", counting)
    inputs = basis_inputs(circuit) + random_inputs(circuit, 4)
    # one input a chunk
    monkeypatch.setattr(verify_module, "CHUNK_AMPLITUDES", peak_register_dim(circuit))
    assert verify(circuit, OracleSpec("csum4"), inputs).passed
    # once per conditioned gate and nonzero value, for all 20 chunks together
    assert 0 < len(calls) <= sum(ins.condition.mod - 1 for ins in conditioned)


# ---------------------------------------------------------------------------
# merges only after the steps where branches can meet
# ---------------------------------------------------------------------------

def _merges_expected(circuit, gadgets, fused) -> list[bool]:
    """Per plan step, whether a merge follows it: after every contracted gadget, CondGate and
    Measure and after a ClassicalSend that retires an outcome symbol; never after a LocalGate
    or a resource. ``gadgets`` are the plan's contracted instruction ranges. Each of its
    ``fused`` ranges is one step, which carries the merge of its last member that has one."""
    def live(i):
        return {s for ins in circuit.instructions[i:] if ins.condition is not None
                for s in ins.condition.terms}

    inside = {i: first == i for first, last in gadgets for i in range(first, last + 1)}
    steps = []  # (instruction index, whether a merge follows its step)
    for i, ins in enumerate(circuit.instructions):
        if i in inside:
            if inside[i]:
                steps.append((i, True))
        elif ins.kind == "ClassicalSend":
            if live(i + 1) != live(i):
                steps.append((i, True))
        else:
            steps.append((i, ins.kind in ("CondGate", "Measure")))
    expected, last = [], None
    for i, merges in steps:
        span = next((f for f in fused if f[0] <= i <= f[1]), None)
        if span is not None and span == last:  # a later member of the same fused step
            expected[-1] = expected[-1] or merges
        else:
            expected.append(merges)
        last = span
    return expected


def test_only_steps_where_branches_can_meet_carry_a_merge():
    circuits = [catalog.tagged("golden")[name].build() for name in UNDER_CAP]
    circuits.append(DistCircuit(LAYOUT, PREFIX, ("a", "b"), ("a", "b")))
    contracted = fused = 0
    for circuit in circuits:
        plan = compile_plan(circuit)
        assert ([live is not None for _, live in plan.steps]
                == _merges_expected(circuit, plan.gadgets, plan.fused))
        contracted += len(plan.gadgets)
        fused += len(plan.fused)
    assert contracted > 0 and fused > 0


def test_merge_runs_only_after_the_steps_that_carry_one(monkeypatch):
    trace = []  # ("step", carries a merge, branches after it) and ("merge",), in order

    def recording(step, live):
        def run(frontier, owned, merge):
            frontier = frontier if step is None else step(frontier, owned, merge)
            trace.append(("step", live is not None, len(frontier)))
            return frontier
        return run

    def counting(frontier, live, *atol):  # a gadget build passes its own tolerance
        trace.append(("merge",))
        return merge(frontier, live, *atol)

    merge = simulate._merge
    monkeypatch.setattr(simulate, "_merge", counting)
    cap_builds(monkeypatch, 512)  # the fan-out's GHZ gadgets run instruction by instruction
    wide_unmerged_steps = contracted = 0
    for name in ("dGMS n=4 pairwise theta=pi/3", "dGCZ n=6/3 nodes fanout"):
        circuit = catalog.tagged("suite")[name].build()
        inputs = random_inputs(circuit, 3, seed=4)
        batch = MixedRegister(inputs[0].dims, np.stack([s.amps for s in inputs], axis=1),
                              inputs[0].labels)
        plan = compile_plan(circuit)
        traced = plan._replace(steps=tuple((recording(step, live), live)
                                           for step, live in plan.steps))
        trace.clear()
        got = enumerate_branches(circuit, batch, merge_equal=True, plan=traced)
        want = []
        for entry in (e for e in trace if e[0] == "step"):
            want.append(entry)
            if entry[1] and entry[2] > 1:
                want.append(("merge",))
        assert trace == want, name
        wide_unmerged_steps += sum(1 for e in want if e[0] == "step" and not e[1] and e[2] > 1)
        contracted += len(plan.gadgets)
        _assert_same_branches(got, enumerate_reference(circuit, batch, True), name,
                              bool(plan.gadgets))
    assert wide_unmerged_steps > 0  # the per-instruction rule would have merged there
    assert contracted > 0  # gadget steps are among the traced steps


# ---------------------------------------------------------------------------
# merge keys: the values that later conditions will read
# ---------------------------------------------------------------------------

def _measured_pair(e, f, first, second, dim=None):
    """A pair whose halves are both measured: ``first`` is a random outcome, ``second``
    equals it, and the rest of the register is left as it was."""
    kind, extra = ("CreateBell", {}) if dim is None else ("CreateQuditPair", {"dim": dim})
    return (Instruction(kind, (e, f), parties=("A", "B"), **extra),
            Instruction("Measure", (e,), outcome=first),
            Instruction("Measure", (f,), outcome=second))


def _weights(circuit, state, upto):
    """The merged branch weights of the first ``upto`` instructions, checked against the
    per-branch loop."""
    got = enumerate_branches(circuit, state, merge_equal=True, upto=upto)
    _assert_same_branches(got, enumerate_reference(circuit, state, True, upto), f"upto={upto}",
                          bool(compile_plan(circuit, upto).gadgets))
    return [br.weight for br in got]


def test_equal_states_merge_on_equal_partial_sums_only():
    # Z^(s xor t) on a: until it runs, the four (s, t) branches hold equal states, and
    # those with equal parities merge; those whose parities differ do not
    circuit = DistCircuit(LAYOUT, _measured_pair("e1", "e2", "s", "s2")
                          + _measured_pair("f1", "f2", "t", "t2")
                          + (Instruction("CondGate", ("a",), gate="Z",
                                         condition=Condition(("s", "t"))),), ("a",), ("a",))
    state = random_register(("a",), (2,), seed=5)
    assert _weights(circuit, state, 3) == [1, 1]  # the partial sum is s
    assert _weights(circuit, state, 6) == [2, 2]  # s xor t: (0, 0) with (1, 1), (0, 1) with (1, 0)
    assert _weights(circuit, state, None) == [2, 2]


def test_equal_partial_sums_of_different_states_do_not_merge():
    # X^s on b makes the states of s = 0 and s = 1 differ before Z^(s xor t) reads the parity
    circuit = DistCircuit(LAYOUT, _measured_pair("e1", "e2", "s", "s2")
                          + _measured_pair("f1", "f2", "t", "t2")
                          + (Instruction("CondGate", ("b",), gate="X", condition=Condition(("s",))),
                             Instruction("CondGate", ("a",), gate="Z",
                                         condition=Condition(("s", "t")))),
                          ("a", "b"), ("a", "b"))
    state = random_register(("a", "b"), (2, 2), seed=6)
    assert _weights(circuit, state, 7) == [1, 1, 1, 1]
    assert _weights(circuit, state, None) == [1, 1, 1, 1]


def test_qudit_sums_are_taken_mod_their_modulus():
    # Z4_dag^(s + t mod 4) on Q after two measured qudit pairs: sixteen branches of equal
    # states in four classes; then K4^(u mod 2), where outcomes 0 and 2 read the same value
    layout = NodeLayout(("A", "B"), {"Q": "A"})
    circuit = DistCircuit(layout, _measured_pair("e1", "e2", "s", "s2", 4)
                          + _measured_pair("f1", "f2", "t", "t2", 4)
                          + (Instruction("CondGate", ("Q",), gate="Z4_dag",
                                         condition=Condition(("s", "t"), 4)),)
                          + _measured_pair("g1", "g2", "u", "u2", 4)
                          + (Instruction("CondGate", ("Q",), gate="K4",
                                         condition=Condition(("u",), 2)),), ("Q",), ("Q",))
    state = random_register(("Q",), (4,), seed=7)
    assert _weights(circuit, state, 6) == [4, 4, 4, 4]
    assert _weights(circuit, state, 7) == [4, 4, 4, 4]
    assert _weights(circuit, state, 10) == [8, 8, 8, 8, 8, 8, 8, 8]
    assert _weights(circuit, state, None) == [8] * 8


def test_a_symbol_measured_again_is_keyed_on_its_new_value():
    # s is measured twice and read only after the second time: its first value splits nothing
    circuit = DistCircuit(LAYOUT, _measured_pair("e1", "e2", "s", "s2")
                          + _measured_pair("f1", "f2", "s", "t2")
                          + (Instruction("CondGate", ("a",), gate="Z",
                                         condition=Condition(("s",))),), ("a",), ("a",))
    state = random_register(("a",), (2,), seed=8)
    assert _weights(circuit, state, 3) == [2]
    assert _weights(circuit, state, 6) == [2, 2]
    assert _weights(circuit, state, None) == [2, 2]


def _frontier_widths(circuit, inputs) -> list[int]:
    """The frontier's width after each step, before the merge that follows it."""
    batch = MixedRegister(inputs[0].dims, np.stack([s.amps for s in inputs], axis=1),
                          inputs[0].labels)
    widths = []

    def recording(step):
        def run(frontier, owned, merge):
            frontier = step(frontier, owned, merge)
            widths.append(len(frontier))
            return frontier
        return run

    plan = compile_plan(circuit)
    traced = plan._replace(steps=tuple((step and recording(step), live)
                                       for step, live in plan.steps))
    enumerate_branches(circuit, batch, merge_equal=True, plan=traced)
    return widths


def test_gms_fanout_frontier_stays_narrow(monkeypatch):
    # each GHZ share is measured in the X basis and one correction reads the parity of all
    # the outcomes: branches merge on that parity as the outcomes come in, and the control
    # share's outcome is merged away by the shifts that directly follow it. A contracted
    # gadget is one group, so its step forks nothing: the GHZ(5) layer runs instruction by
    # instruction once builds are capped (cap_builds)
    circuit = catalog.gms(5, 5, math.pi / 3, "fanout")
    inputs = random_inputs(circuit, 4, seed=9)
    assert set(_frontier_widths(circuit, inputs)) == {1}
    cap_builds(monkeypatch, 512)
    widths = _frontier_widths(circuit, inputs)
    assert max(widths) == 4
    assert sum(widths) <= 104
    assert verify(circuit, OracleSpec("gms", math.pi / 3), inputs).passed


def test_qudit_fanout_frontier_stays_narrow(monkeypatch):
    # a d = 4 measurement forks four ways; the four branches forked on the control share's
    # outcome merge after the two shifts, before either share's own gates
    entry = catalog.tagged("suite")["d(CZ4)^2 fan-out two targets"]
    circuit = entry.build()
    inputs = random_inputs(circuit, 4, seed=9)
    assert set(_frontier_widths(circuit, inputs)) == {1}
    cap_builds(monkeypatch, 512)
    widths = _frontier_widths(circuit, inputs)
    assert max(widths) == 16
    assert sum(widths) <= 64
    assert verify(circuit, entry.make_oracle(), inputs).passed
