"""Property tests of the wire format: ``serialize`` writes the stdlib's bytes, and
mutated builder documents parse cleanly or fail cleanly, never crash."""

import contextlib
import copy
import io
import json
import math
import tempfile
from pathlib import Path

import pytest
from conftest import serialize_reference
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from distgates import (Condition, DistCircuit, Instruction, NodeLayout, catalog, deserialize,
                       serialize, validate)
from distgates.circuit import KINDS, RESOURCE_KINDS, CircuitParseError
from distgates.cli import main
from distgates.gates import WIRE_GATES, gate_arity
from distgates.verify import OracleSpec

CORPUS = catalog.tagged("corpus")
DOCS = {name: json.loads(serialize(entry.build())) for name, entry in CORPUS.items()}
NAMES = sorted(DOCS)

# values put in place of any field: wrong types, strings for lists, out-of-range numbers
JUNK = [None, True, 0, 1, -1, 3, 2 ** 40, 1.5, "4", "ctrl", "", [], {}, ["x"], [1, 2],
        [["a"]], {"kind": "Measure"}]
DIMS = [0, 1, -1, 3, 5, 100000, 2 ** 40, "4", 4.0, None, [4]]


def oracle_args(name: str) -> list[str]:
    spec = CORPUS[name].oracle
    if not isinstance(spec, OracleSpec):  # a controlled-u product: any kind exercises the CLI
        return ["--oracle", "cnot"]
    return ["--oracle", spec.kind] + (["--theta", repr(spec.theta)] if spec.theta else [])


def paths(node, prefix=()):
    """Every (container path, key) in a JSON document."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from paths(value, prefix + (key,))


def mutate(doc, data):
    """Apply one to three random mutations to a copy of ``doc``."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        op = data.draw(st.sampled_from(["drop", "junk", "dim"]))
        if op == "dim":
            instructions = doc.get("instructions")
            if isinstance(instructions, list) and instructions:
                ins = data.draw(st.sampled_from(instructions))
                if isinstance(ins, dict):
                    ins["dim"] = data.draw(st.sampled_from(DIMS))
            continue
        where = list(paths(doc))
        if not where:
            return doc
        prefix, key = data.draw(st.sampled_from(where))
        parent = doc
        for step in prefix:
            parent = parent[step]
        if op == "drop" and isinstance(parent, dict):
            del parent[key]
        else:
            parent[key] = copy.deepcopy(data.draw(st.sampled_from(JUNK)))
    return doc


@settings(max_examples=150, derandomize=True, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.data())
def test_mutated_documents_parse_or_fail_cleanly(data):
    name = data.draw(st.sampled_from(NAMES))
    text = json.dumps(mutate(DOCS[name], data))
    try:
        circuit = deserialize(text)
    except CircuitParseError:
        pass
    else:
        assert isinstance(validate(circuit), list)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.json"
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(["verify", "--circuit", str(path), *oracle_args(name),
                         "--inputs", "random:1"])
    assert code in (0, 1, 2)


# labels the escaper must get right: empty, quotes, backslashes, control and non-ASCII
# characters, astral and lone surrogate code points
SPECIAL = ["", '"', "\\", '\\"', "\x00", "\x1f\x7f", "\n\t\r", "\u00e9", "\u91cf\u5b50",
           "\U0001f600", "\ud800", "</x>"]
LABELS = st.text(max_size=5) | st.sampled_from(SPECIAL)
LABEL_LISTS = st.lists(LABELS, max_size=4)
ANGLES = (st.floats(allow_nan=False, allow_infinity=False)
          | st.builds(lambda p, q: math.pi * p / q, st.integers(-12, 12), st.integers(1, 12)))
INTEGERS = st.integers(-2 ** 70, 2 ** 70)
CONDITIONS = st.builds(Condition, LABEL_LISTS, st.integers(2, 2 ** 40))


GATES = st.sampled_from(sorted(WIRE_GATES))


def distinct_labels(n: int):
    return st.lists(LABELS, min_size=n, max_size=n, unique=True)


@st.composite
def instructions(draw):
    """Any instruction ``Instruction`` accepts, with the fields its kind may carry."""
    kind = draw(st.sampled_from(KINDS))
    fields = {"layer": draw(st.none() | INTEGERS)}
    if kind in ("LocalGate", "CondGate"):
        gate = fields["gate"] = draw(GATES)
        fields["targets"] = draw(distinct_labels(len(gate_arity(gate))))
        fields["params"] = draw(st.lists(ANGLES, max_size=3))
    elif kind == "Measure":
        fields["targets"] = (draw(LABELS),)
        fields["outcome"] = draw(st.none() | LABELS)
    elif kind == "ClassicalSend":
        fields["targets"] = draw(LABEL_LISTS)
        fields["parties"] = draw(st.lists(LABELS, min_size=2, max_size=4))
        fields["symbol"] = draw(LABELS)
        fields["bits"] = draw(st.none() | INTEGERS)
    else:  # a resource: one distinct share per party, two parties for a pair
        ghz, qudit = RESOURCE_KINDS[kind]
        parties = draw(st.integers(3, 4)) if ghz else 2
        fields["targets"] = draw(distinct_labels(parties))
        fields["parties"] = draw(st.lists(LABELS, min_size=parties, max_size=parties))
        if qudit:
            fields["dim"] = draw(st.integers(3, 2 ** 40))
    if kind == "CondGate":
        fields["condition"] = draw(CONDITIONS)
    elif kind == "ClassicalSend":
        fields["condition"] = draw(st.none() | CONDITIONS)
    return Instruction(kind, **fields)


@st.composite
def every_field(draw):
    """A CondGate or ClassicalSend that carries all eleven fields, which no builder writes
    but the data model accepts: every key of the wire format in one object."""
    kind = draw(st.sampled_from(("CondGate", "ClassicalSend")))
    gate = draw(GATES)
    return Instruction(
        kind, draw(distinct_labels(len(gate_arity(gate))) if kind == "CondGate"
                   else LABEL_LISTS),
        gate, draw(st.lists(ANGLES, max_size=3)),
        draw(st.builds(Condition, LABEL_LISTS, st.sampled_from([2]) | st.integers(3, 2 ** 40))),
        draw(st.lists(LABELS, min_size=0 if kind == "CondGate" else 2, max_size=4)),
        draw(st.integers(2, 2 ** 40)), draw(LABELS), draw(LABELS), draw(INTEGERS),
        draw(INTEGERS))


CIRCUITS = st.builds(DistCircuit, st.builds(NodeLayout, LABEL_LISTS,
                                            st.dictionaries(LABELS, LABELS, max_size=4)),
                     st.lists(instructions() | every_field(), max_size=6),
                     LABEL_LISTS, LABEL_LISTS)
# one instruction with every field set, under each form of condition
EVERY_FIELD = [Instruction("CondGate", ("q", "r"), "CZ", (math.pi / 2, 0.7),
                           Condition(("m0", "m1")), ("A", "B"), 3, "o", "s", 2, 5),
               Instruction("ClassicalSend", ("q",), "RZ", (-math.pi,), Condition(("m0",), 4),
                           ("A", "B", "C"), 2, "", '"', 0, -1)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(CIRCUITS)
@example(DistCircuit(NodeLayout((), {}), (), (), ()))
@example(DistCircuit(NodeLayout(("A", "B"), {}), (
    Instruction("CondGate", ("q",), "RZ", (math.pi / 3, 0.7), Condition(("m", ""), 4)),
    Instruction("CondGate", ("q", "r"), "CZ4", (), Condition((), 2))), ("q",), ()))
@example(DistCircuit(NodeLayout(("A", "B", "C"), {"q": "A", "r": "A"}), EVERY_FIELD, ("q",),
                     ("q", "r")))
def test_serialize_writes_the_stdlib_bytes(circuit):
    assert serialize(circuit) == serialize_reference(circuit)


@pytest.mark.parametrize("entry", catalog.entries(), ids=lambda e: e.name)
def test_serialize_writes_the_stdlib_bytes_for_every_catalog_entry(entry):
    circuit = entry.build()
    assert serialize(circuit) == serialize_reference(circuit)
