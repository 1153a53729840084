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
from distgates.gates import WIRE_GATES, gate_arity, gate_params
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


def angles_of(gate: str):
    """As many angles as ``gate`` takes."""
    return st.lists(ANGLES, min_size=gate_params(gate), max_size=gate_params(gate))


@st.composite
def instructions(draw):
    """Any instruction ``Instruction`` accepts, with the fields its kind may carry."""
    kind = draw(st.sampled_from(KINDS))
    fields = {"layer": draw(st.none() | INTEGERS)}
    if kind in ("LocalGate", "CondGate"):
        gate = fields["gate"] = draw(GATES)
        fields["targets"] = draw(distinct_labels(len(gate_arity(gate))))
        fields["params"] = draw(angles_of(gate))
    elif kind == "Measure":
        fields["targets"] = (draw(LABELS),)
        fields["outcome"] = draw(st.none() | LABELS)
    elif kind == "ClassicalSend":
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
    """A CondGate or ClassicalSend that carries every field its kind accepts, each set: a
    CondGate its targets, gate, angles, condition and layer, a ClassicalSend its parties,
    symbol, condition, bits and layer."""
    condition = draw(st.builds(Condition, LABEL_LISTS,
                               st.sampled_from([2]) | st.integers(3, 2 ** 40)))
    if draw(st.booleans()):
        gate = draw(GATES)
        return Instruction("CondGate", draw(distinct_labels(len(gate_arity(gate)))), gate,
                           draw(angles_of(gate)), condition, layer=draw(INTEGERS))
    return Instruction("ClassicalSend", parties=draw(st.lists(LABELS, min_size=2, max_size=4)),
                       condition=condition, symbol=draw(LABELS), bits=draw(INTEGERS),
                       layer=draw(INTEGERS))


CIRCUITS = st.builds(DistCircuit, st.builds(NodeLayout, LABEL_LISTS,
                                            st.dictionaries(LABELS, LABELS, max_size=4)),
                     st.lists(instructions() | every_field(), max_size=6),
                     LABEL_LISTS, LABEL_LISTS)
# every field of the wire format, each on a kind that accepts it, under each form of condition
EVERY_FIELD = [Instruction("CondGate", ("q",), "RZ", (math.pi / 2,), Condition(("m0", "m1")),
                           layer=5),
               Instruction("ClassicalSend", parties=("A", "B", "C"), symbol='"',
                           condition=Condition(("m0",), 4), bits=0, layer=-1),
               Instruction("CreateQuditPair", ("q", "r"), parties=("A", "B"), dim=3, layer=2),
               Instruction("Measure", ("q",), outcome="", layer=0)]


@settings(max_examples=300, derandomize=True, deadline=None, database=None)
@given(CIRCUITS)
@example(DistCircuit(NodeLayout((), {}), (), (), ()))
@example(DistCircuit(NodeLayout(("A", "B"), {}), (
    Instruction("CondGate", ("q",), "RZ", (math.pi / 3,), Condition(("m", ""), 4)),
    Instruction("CondGate", ("q", "r"), "CZ4", (), Condition((), 2))), ("q",), ()))
@example(DistCircuit(NodeLayout(("A", "B", "C"), {"q": "A", "r": "A"}), EVERY_FIELD, ("q",),
                     ("q", "r")))
def test_serialize_writes_the_stdlib_bytes(circuit):
    assert serialize(circuit) == serialize_reference(circuit)


@pytest.mark.parametrize("entry", catalog.entries(), ids=lambda e: e.name)
def test_serialize_writes_the_stdlib_bytes_for_every_catalog_entry(entry):
    circuit = entry.build()
    assert serialize(circuit) == serialize_reference(circuit)
