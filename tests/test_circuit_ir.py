"""Circuit IR: JSON round-trips, validation rules, resource tally."""

import dataclasses
import json
import math
import random

import numpy as np
import pytest
from conftest import bad_resource_documents, conditioned_document, with_first_param

from distgates import (Condition, DistCircuit, Instruction, NodeLayout, catalog,
                       count_messages, deserialize, serialize, tally, validate)
from distgates.circuit import CircuitParseError, format_angle, parse_angle
from distgates.simulate import compile_plan

CORPUS = catalog.circuits("corpus")


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_round_trip_builder_outputs(name):
    circuit = CORPUS[name]
    text = serialize(circuit)
    restored = deserialize(text)
    assert restored == circuit
    assert serialize(restored) == text  # byte-stable
    assert validate(restored) == []
    # documents written while layouts had a "comm_slots" map (one slot per node) still parse
    doc = json.loads(text)
    doc["layout"]["comm_slots"] = {node: 1 for node in doc["layout"]["nodes"]}
    assert deserialize(json.dumps(doc, indent=2, sort_keys=True)) == circuit


def test_empty_circuit_round_trips():
    circuit = DistCircuit(NodeLayout(("A",), {}), (), (), ())
    assert deserialize(serialize(circuit)) == circuit


def test_tally_counts_by_kind():
    circuit = DistCircuit(
        NodeLayout(("A", "B"), {"x": "A", "y": "B"}),
        (Instruction("CreateBell", targets=("x", "y"), parties=("A", "B")),),
        (), ("x", "y"))
    t = tally(circuit)
    assert (t.ep, t.ghz, t.ep_d, t.ghz_d) == (1, {}, {}, {})
    assert t.time_units == 1.0


def test_tally_gms_fanout_resources():
    t = tally(CORPUS["gms4_fanout"])
    assert t.ep == 1 and t.ghz == {4: 1, 3: 1}
    assert t.time_units == 3.0  # 2 epsilon + 1 at epsilon = 1


def test_tally_qudit_gcz_resources():
    t = tally(CORPUS["qudit_gcz6"])
    assert t.ghz_d == {(3, 4): 1} and t.ep_d == {4: 1}


def test_tally_invariant_under_reordering():
    circuit = CORPUS["gcz6_3n_fanout"]
    shuffled = list(circuit.instructions)
    random.Random(4).shuffle(shuffled)
    reordered = DistCircuit(circuit.layout, tuple(shuffled), circuit.inputs, circuit.outputs)
    a, b = tally(circuit), tally(reordered)
    assert (a.ep, a.ghz, a.ep_d, a.ghz_d, a.time_units) == \
           (b.ep, b.ghz, b.ep_d, b.ghz_d, b.time_units)


def test_tally_epsilon_models():
    circuit = CORPUS["gms4_fanout"]
    assert tally(circuit, epsilon=1.5).time_units == pytest.approx(4.0)
    assert tally(circuit, epsilon={4: 2.0, 3: 1.0}).time_units == pytest.approx(4.0)
    # layered: every builder layer holds one resource, so layered == serial here
    assert tally(circuit, schedule="layered").time_units == 3.0
    assert tally(circuit, schedule="serial").time_units == 3.0


def test_tally_rejects_an_unknown_schedule():
    with pytest.raises(ValueError, match="'serial' or 'layered'"):
        tally(CORPUS["gms4_fanout"], schedule="layerd")


def test_dcnot_message_audit():
    assert count_messages(CORPUS["dcnot"]) == 2
    assert tally(CORPUS["dcnot"]).ep == 1


def test_malformed_json_reports_position():
    with pytest.raises(CircuitParseError, match=r"line \d+, column \d+"):
        deserialize("{\n  \"layout\": ,\n}")


def test_deeply_nested_json_is_a_parse_error():
    with pytest.raises(CircuitParseError, match="nests too deeply"):
        deserialize("[" * 100_000)


def test_unknown_gate_name_rejected():
    text = serialize(CORPUS["dcnot"]).replace('"CNOT"', '"CROT"')
    with pytest.raises(CircuitParseError, match="unknown gate"):
        deserialize(text)


def _with_field(name: str, field: str, value) -> str:
    """The circuit's JSON with ``field`` of its first resource instruction replaced."""
    doc = json.loads(serialize(CORPUS[name]))
    first = next(ins for ins in doc["instructions"] if ins["kind"].startswith("Create"))
    first[field] = value
    return json.dumps(doc)


@pytest.mark.parametrize("field,value", [
    ("targets", "E0_node1"), ("targets", ["E0_n1", 3]), ("targets", {"a": 1}),
    ("parties", "n1"), ("parties", [None, "n2"])])
def test_label_lists_must_be_lists_of_strings(field, value):
    with pytest.raises(CircuitParseError, match=f"'{field}' must be a list of strings"):
        deserialize(_with_field("dcsum4", field, value))


def _first_condition(doc: dict) -> dict:
    return next(ins["condition"] for ins in doc["instructions"] if "condition" in ins)


@pytest.mark.parametrize("name,field,value", [
    ("dcnot", "inputs", "ct"), ("dcnot", "outputs", "ct"), ("dcnot", "inputs", ["c", 1]),
    ("dcnot", "outputs", None), ("dcnot", "nodes", "AB"), ("dcnot", "nodes", ["A", 2]),
    ("dcnot", "xor", "m0"), ("dcsum4", "terms", "m0"), ("dcsum4", "terms", [0])])
def test_document_label_lists_must_be_lists_of_strings(name, field, value):
    # a string must not be split into one label per character
    doc = json.loads(serialize(CORPUS[name]))
    owner = (doc["layout"] if field == "nodes"
             else _first_condition(doc) if field in ("xor", "terms") else doc)
    owner[field] = value
    with pytest.raises(CircuitParseError, match=f"'{field}' must be a list of strings"):
        deserialize(json.dumps(doc))


@pytest.mark.parametrize("value", [0, 1, -4, True, False, "4", 4.0, [4]])
def test_dim_must_be_an_integer_of_at_least_two(value):
    with pytest.raises(CircuitParseError, match="'dim' must be an integer >= 2"):
        deserialize(_with_field("dcsum4", "dim", value))


@pytest.mark.parametrize("mutate,match", [
    (lambda d: d.__setitem__("layout", ["A", "B"]), "'layout' must be an object"),
    (lambda d: d["layout"].__setitem__("placement", None), "'placement' must be an object"),
    (lambda d: d["layout"]["placement"].__setitem__("c", ["A"]), "of str values"),
    (lambda d: d["instructions"][3].__setitem__("outcome", ["m0"]), "'outcome' must be a string"),
    (lambda d: d["instructions"][3].__setitem__("bits", True), "'bits' must be an integer"),
    (lambda d: d["instructions"][0].__setitem__("params", "1"), "'params' must be a list"),
    (lambda d: d["instructions"][0].__setitem__("params", ["pi/"]), "cannot parse angle"),
    (lambda d: _first_condition(d).__setitem__("sum_mod", 0), "'sum_mod' must be an integer"),
    (lambda d: _first_condition(d).__setitem__("sum_mod", "4"), "'sum_mod' must be an integer"),
])
def test_document_fields_of_the_wrong_type_are_parse_errors(mutate, match):
    doc = json.loads(serialize(CORPUS["dcsum4"]))
    mutate(doc)
    with pytest.raises(CircuitParseError, match=match):
        deserialize(json.dumps(doc))


def test_instruction_rejects_bad_labels_and_dims():
    with pytest.raises(ValueError, match="targets"):
        Instruction("Measure", targets="ctrl")
    with pytest.raises(ValueError, match="parties"):
        Instruction("CreateBell", targets=("a", "b"), parties=("A", 2))
    with pytest.raises(ValueError, match="dim"):
        Instruction("CreateQuditPair", targets=("a", "b"), parties=("A", "B"), dim=0)
    assert Instruction("Measure", targets=iter(["a"])).targets == ("a",)


@pytest.mark.parametrize("kind,parties,dim", [
    ("CreateBell", 2, 4), ("CreateGHZ", 3, 2), ("CreateQuditPair", 2, None),
    ("CreateQuditGHZ", 3, None), ("CreateQuditPair", 2, 2)])
def test_resource_dim_must_match_the_kind(kind, parties, dim):
    # qubit kinds carry no dim; qudit kinds carry one above 2
    nodes = tuple("ABC"[:parties])
    with pytest.raises(ValueError, match="dim"):
        Instruction(kind, targets=tuple(map(str.lower, nodes)), parties=nodes, dim=dim)


@pytest.mark.parametrize("name", ["qudit_pair_without_dim", "bell_with_dim"])
def test_resource_dim_contradicting_the_kind_is_a_parse_error(name):
    with pytest.raises(CircuitParseError, match="dim"):
        deserialize(bad_resource_documents()[name])


@pytest.mark.parametrize("kind,fields", [
    ("LocalGate", {"targets": ("a",), "gate": "X"}),
    ("Measure", {"targets": ("a",), "outcome": "m"}),
    ("CreateBell", {"targets": ("a", "b"), "parties": ("A", "B")})])
def test_a_condition_outside_condgate_and_classicalsend_is_rejected(kind, fields):
    # no step would evaluate it: the instruction would run unconditionally
    with pytest.raises(ValueError, match=f"a {kind} takes no condition"):
        Instruction(kind, condition=Condition(("m",)), **fields)
    with pytest.raises(CircuitParseError, match=f"a {kind} takes no condition"):
        deserialize(conditioned_document(kind))


@pytest.mark.parametrize("text,fault,message", [
    *[pytest.param(conditioned_document(kind), lambda ins: "condition" in ins,
                   f"a {kind} takes no condition", id=f"conditioned {kind}")
      for kind in ("LocalGate", "Measure", "CreateBell")],
    pytest.param(bad_resource_documents()["bell_with_dim"], lambda ins: "dim" in ins,
                 "CreateBell takes no dim, got 4", id="bell with dim"),
    pytest.param(serialize(CORPUS["gms4_fanout"]).replace('"pi/2"', '"pi/"', 1),
                 lambda ins: ins.get("params") == ["pi/"], "cannot parse angle 'pi/'",
                 id="bad angle")])
def test_errors_raised_while_building_an_instruction_name_it(text, fault, message):
    index = next(i for i, ins in enumerate(json.loads(text)["instructions"]) if fault(ins))
    with pytest.raises(CircuitParseError, match=f"^instruction {index}: {message}"):
        deserialize(text)


@pytest.mark.parametrize("field,value,noun", [
    ("outcome", ["m0"], "a string"), ("outcome", 0, "a string"), ("symbol", b"m", "a string"),
    ("symbol", 3, "a string"), ("bits", True, "an integer"), ("bits", np.int64(1), "an integer"),
    ("bits", 1.0, "an integer"), ("layer", np.int64(3), "an integer"),
    ("layer", False, "an integer"), ("layer", "3", "an integer")])
def test_instruction_refuses_what_the_wire_format_refuses(field, value, noun):
    # accepted, bits=True would be written as true and layer=np.int64(3) not at all
    with pytest.raises(ValueError, match=f"'{field}' must be {noun}, got"):
        Instruction("ClassicalSend", parties=("A", "B"), **{"symbol": "m", field: value})


def test_instruction_keeps_tuples_and_normalizes_other_sequences():
    targets = ("a", "b")
    ins = Instruction("LocalGate", targets=targets, gate="CNOT", params=[], layer=2 ** 70)
    assert ins.targets is targets and ins.params == () and ins.layer == 2 ** 70
    assert Instruction("LocalGate", targets=["a"], gate="RZ", params=[1]).params == (1.0,)
    with pytest.raises(ValueError, match="unknown kind"):
        Instruction(["Measure"])


def test_instruction_keeps_the_dataclass_contract():
    # its own __init__ takes the fields in the order and with the defaults of the dataclass
    assert [(f.name, f.default) for f in dataclasses.fields(Instruction)] == [
        ("kind", dataclasses.MISSING), ("targets", ()), ("gate", None), ("params", ()),
        ("condition", None), ("parties", ()), ("dim", None), ("outcome", None),
        ("symbol", None), ("bits", None), ("layer", None)]
    cond = Condition(("m0",), 4)
    keyword = Instruction(kind="CondGate", targets=("q",), gate="RZ", params=(0.5,),
                          condition=cond, layer=3)
    positional = Instruction("CondGate", ["q"], "RZ", [0.5], cond, (), None, None, None, None, 3)
    assert positional == keyword and hash(positional) == hash(keyword)
    # no kind takes every field: each other field in its position, on a kind that takes it
    for fields, args in [
            (dict(kind="ClassicalSend", condition=cond, parties=("A", "B"), symbol="s", bits=2),
             ("ClassicalSend", (), None, (), cond, ["A", "B"], None, None, "s", 2)),
            (dict(kind="CreateQuditPair", targets=("e1", "e2"), parties=("A", "B"), dim=4),
             ("CreateQuditPair", ["e1", "e2"], None, (), None, ["A", "B"], 4)),
            (dict(kind="Measure", targets=("q",), outcome="o"),
             ("Measure", ["q"], None, (), None, (), None, "o"))]:
        assert Instruction(**fields) == Instruction(*args), fields["kind"]
    assert keyword != dataclasses.replace(keyword, layer=4)
    assert Instruction("Measure", ("q",)) == Instruction("Measure", ("q",), None, (), None, (),
                                                         None, None, None, None, None)
    assert repr(keyword) == (
        "Instruction(kind='CondGate', targets=('q',), gate='RZ', params=(0.5,), "
        "condition=Condition(terms=('m0',), mod=4), parties=(), dim=None, outcome=None, "
        "symbol=None, bits=None, layer=3)")
    with pytest.raises(dataclasses.FrozenInstanceError):
        keyword.layer = 4
    with pytest.raises(dataclasses.FrozenInstanceError):
        del keyword.gate
    moved = dataclasses.replace(keyword, params=[1], layer=None)
    assert moved.params == (1.0,) and moved.layer is None and moved.targets is keyword.targets
    with pytest.raises(ValueError, match="'layer' must be an integer, got '4'"):
        dataclasses.replace(keyword, layer="4")  # replace runs the same checks
    assert not hasattr(keyword, "__dict__")  # compact: the fields live in slots
    with pytest.raises(ValueError, match="'gate' must be a string, got 3"):
        Instruction("LocalGate", ("a",), 3)  # the writer has only a string's form for it


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan, "inf", "nan"])
def test_instruction_refuses_a_non_finite_parameter(value):
    with pytest.raises(ValueError, match=r"'params' must be finite angles, got \(0\.5, "):
        Instruction("LocalGate", ("a",), "RZ", (0.5, value))


@pytest.mark.parametrize("text", ["inf", "-inf", "nan", "NaN", "1e999", " -1e400 ", "inf*pi"])
def test_parse_angle_refuses_a_non_finite_angle(text):
    with pytest.raises(ValueError, match="is not finite|cannot parse angle"):
        parse_angle(text)


@pytest.mark.parametrize("text", ["9" * 400 + "pi", "pi/" + "9" * 400, "-" + "9" * 400 + "pi/3"])
def test_parse_angle_refuses_a_multiple_of_pi_past_the_float_range(text):
    with pytest.raises(ValueError, match="is out of range"):
        parse_angle(text)


@pytest.mark.parametrize("param,shown", [('"inf"', "'inf'"), ("1e999", "inf"), ("NaN", "nan"),
                                         ('"-inf"', "'-inf'")])
def test_a_non_finite_parameter_in_a_document_is_a_parse_error(param, shown):
    text, index = with_first_param(serialize(CORPUS["gms4_fanout"]), param)
    message = f"^instruction {index}: angle {shown} is not finite"
    with pytest.raises(CircuitParseError, match=message):
        deserialize(text)


def test_serialize_refuses_a_value_the_wire_format_has_no_form_for():
    circuit = DistCircuit(NodeLayout(("A",), {"x": "A"}), (), ("x",), ("x",))
    with pytest.raises(TypeError):  # the placement is checked once, when built, and read-only
        circuit.layout.placement["x"] = None
    assert deserialize(serialize(circuit)) == circuit
    # the writer itself refuses a value it meets that JSON has no form for
    object.__setattr__(circuit.layout, "placement", {"x": None})
    with pytest.raises(TypeError, match="must be a string, not NoneType"):
        serialize(circuit)


LAYOUT_X = NodeLayout(("A",), {"x": "A"})


@pytest.mark.parametrize("build,message", [
    (lambda: NodeLayout(("A", 1), {}), "'nodes' must be a list of strings, got"),
    (lambda: NodeLayout("AB", {}), "'nodes' must be a list of strings, got 'AB'"),
    # this circuit used to be built and written, and its text then failed to deserialize
    (lambda: DistCircuit(NodeLayout(("A",), {"x": 1}), (), (3,), ("x",)),
     "'placement' must be an object of str values, got {'x': 1}"),
    (lambda: NodeLayout(("A",), {"x": None}), "'placement' must be an object of str values"),
    (lambda: NodeLayout(("A",), {1: "A"}), "'placement' must be an object of str values"),
    (lambda: DistCircuit(LAYOUT_X, (), (3,), ("x",)), "'inputs' must be a list of strings"),
    (lambda: DistCircuit(LAYOUT_X, (), ("x",), "xy"), "'outputs' must be a list of strings"),
    (lambda: DistCircuit(LAYOUT_X, (), ("x",), None), "'outputs' must be a list of strings"),
    (lambda: Condition("m0"), "'terms' must be a list of strings, got 'm0'"),
    (lambda: Condition((0,), 2), "'terms' must be a list of strings, got \\(0,\\)"),
    (lambda: Instruction("CondGate", ("x",), gate="X", condition=Condition(("m", 0))),
     "'terms' must be a list of strings, got \\('m', 0\\)"),
    (lambda: Condition(("m",), 4.0), "condition 'mod' must be an integer >= 2, got 4.0"),
    (lambda: Condition(("m",), True), "condition 'mod' must be an integer >= 2, got True"),
])
def test_layouts_circuits_and_conditions_refuse_what_the_wire_format_refuses(build, message):
    with pytest.raises(ValueError, match=message):
        build()


def test_a_classicalsend_may_carry_a_condition():
    send = Instruction("ClassicalSend", parties=("A", "B"), symbol="m",
                       condition=Condition(("m",)))
    assert send.condition == Condition(("m",))
    circuit = deserialize(conditioned_document("ClassicalSend"))
    assert [ins.kind for ins in circuit.instructions if ins.condition] == ["ClassicalSend"]


def test_undefined_outcome_symbol_rejected():
    # renaming the first measurement's outcome leaves its condition dangling: the document
    # is well formed, and the compile walk, which sees the whole circuit, refuses it
    text = serialize(CORPUS["dcnot"]).replace('"outcome": "m0"', '"outcome": "m9"')
    circuit = deserialize(text)
    reader = next(i for i, ins in enumerate(circuit.instructions)
                  if ins.condition is not None and "m0" in ins.condition.terms)
    with pytest.raises(ValueError, match=f"^instruction {reader}: condition references "
                                         "unmeasured symbol 'm0'"):
        compile_plan(circuit)


def test_validate_cross_node_local_gate():
    circuit = DistCircuit(
        NodeLayout(("A", "B"), {"x": "A", "y": "B"}),
        (Instruction("LocalGate", targets=("x", "y"), gate="CNOT"),),
        ("x", "y"), ("x", "y"))
    rules = [v.rule for v in validate(circuit)]
    assert "cross-node local gate" in rules


def test_validate_accepts_every_builder_output():
    for name, circuit in CORPUS.items():
        assert validate(circuit) == [], f"{name} failed validation"


@pytest.mark.parametrize("angle", [math.pi / 2, math.pi / 3, -2 * math.pi / 3,
                                   math.pi, -math.pi, 0.0, 0.7, -1.25e-3, 2 * math.pi])
def test_angle_round_trip(angle):
    text = format_angle(angle)
    assert parse_angle(text) == angle
    assert format_angle(parse_angle(text)) == text


def test_angle_parse_forms():
    assert parse_angle("pi/2") == math.pi / 2
    assert parse_angle("-pi") == -math.pi
    assert parse_angle("3pi/4") == 3 * math.pi / 4
    assert parse_angle("0.5") == 0.5
    with pytest.raises(ValueError):
        parse_angle("two*pi")


def test_condition_serialization_forms():
    import json
    doc = json.loads(serialize(CORPUS["dcsum4"]))
    conds = [ins["condition"] for ins in doc["instructions"] if "condition" in ins]
    assert all("sum_mod" in c and c["sum_mod"] == 4 for c in conds)
    doc = json.loads(serialize(CORPUS["dcnot"]))
    conds = [ins["condition"] for ins in doc["instructions"] if "condition" in ins]
    assert all("xor" in c for c in conds)
