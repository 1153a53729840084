"""Circuit IR: JSON round-trips, validation rules, resource tally."""

import json
import math
import random

import pytest
from conftest import builder_corpus

from distgates import (Condition, DistCircuit, Instruction, NodeLayout, count_messages,
                       deserialize, serialize, tally, validate)
from distgates.circuit import CircuitParseError, format_angle, parse_angle

CORPUS = builder_corpus()


@pytest.mark.parametrize("name", sorted(CORPUS))
def test_round_trip_builder_outputs(name):
    circuit = CORPUS[name]
    text = serialize(circuit)
    restored = deserialize(text)
    assert restored == circuit
    assert serialize(restored) == text  # byte-stable
    assert validate(restored) == []


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


def test_dcnot_message_audit():
    assert count_messages(CORPUS["dcnot"]) == 2
    assert tally(CORPUS["dcnot"]).ep == 1


def test_malformed_json_reports_position():
    with pytest.raises(CircuitParseError, match=r"line \d+, column \d+"):
        deserialize("{\n  \"layout\": ,\n}")


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


def test_instruction_rejects_bad_labels_and_dims():
    with pytest.raises(ValueError, match="targets"):
        Instruction("Measure", targets="ctrl")
    with pytest.raises(ValueError, match="parties"):
        Instruction("CreateBell", targets=("a", "b"), parties=("A", 2))
    with pytest.raises(ValueError, match="dim"):
        Instruction("CreateQuditPair", targets=("a", "b"), parties=("A", "B"), dim=0)
    assert Instruction("Measure", targets=iter(["a"])).targets == ("a",)


def test_undefined_outcome_symbol_rejected():
    # renaming the first measurement's outcome leaves its condition dangling
    text = serialize(CORPUS["dcnot"]).replace('"outcome": "m0"', '"outcome": "m9"')
    with pytest.raises(CircuitParseError, match="undefined outcome"):
        deserialize(text)


def test_validate_cross_node_local_gate():
    circuit = DistCircuit(
        NodeLayout(("A", "B"), {"x": "A", "y": "B"}),
        (Instruction("LocalGate", targets=("x", "y"), gate="CNOT"),),
        ("x", "y"), ("x", "y"))
    rules = [v.rule for v in validate(circuit)]
    assert "cross-node local gate" in rules


def test_validate_unknown_outcome():
    circuit = DistCircuit(
        NodeLayout(("A",), {"x": "A"}),
        (Instruction("CondGate", targets=("x",), gate="X",
                     condition=Condition(("m9",), 2)),),
        ("x",), ("x",))
    violations = validate(circuit)
    assert any(v.rule == "unknown outcome symbol" and v.detail == "m9" for v in violations)


def test_validate_resource_arity_and_unmeasured_comm():
    circuit = DistCircuit(
        NodeLayout(("A", "B"), {"x": "A", "a0": "A", "a1": "B"}),
        (Instruction("CreateGHZ", targets=("a0", "a1"), parties=("A", "B")),),
        ("x",), ("x",))
    rules = {v.rule for v in validate(circuit)}
    assert "resource arity" in rules
    assert "unconsumed communication subsystem" in rules


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
