"""Every circuit rule in one table: a bad instance of each, refused in its one home with its
message, through the library and through CLI ``verify`` and ``simulate`` (exit 2).

The homes are the module docstring of ``distgates.circuit``'s: ``Instruction`` refuses what
one instruction decides when it is built, the compile walk what needs the circuit, and
``validate`` the layout, which the simulator ignores.
"""

import copy
import json
import re

import pytest

from distgates import (Condition, DistCircuit, Instruction, NodeLayout, OracleSpec,
                       enumerate_branches, random_register, validate, verify)
from distgates.cli import main
from distgates.simulate import compile_plan

# a teleported CZ of a and b in wire form, which every bad instance extends or re-places
DOC = {
    "layout": {"nodes": ["A", "B"],
               "placement": {"a": "A", "b": "B", "e1": "A", "e2": "B", "f1": "A", "f2": "B"}},
    "instructions": [
        {"kind": "CreateBell", "targets": ["e1", "e2"], "parties": ["A", "B"]},
        {"kind": "LocalGate", "targets": ["a", "e1"], "gate": "CNOT"},
        {"kind": "Measure", "targets": ["e1"], "outcome": "m"},
        {"kind": "CondGate", "targets": ["e2"], "gate": "X", "condition": {"xor": ["m"]}},
        {"kind": "LocalGate", "targets": ["e2", "b"], "gate": "CZ"},
        {"kind": "LocalGate", "targets": ["e2"], "gate": "H"},
        {"kind": "Measure", "targets": ["e2"], "outcome": "n"},
        {"kind": "CondGate", "targets": ["a"], "gate": "Z", "condition": {"xor": ["n"]}},
    ],
    "inputs": ["a", "b"],
    "outputs": ["a", "b"],
}
END = len(DOC["instructions"])  # the index of the first appended instruction


def append(*instructions):
    return lambda doc: doc["instructions"].extend(instructions)


def place(label, node):
    """Place ``label`` on ``node``, or leave it unplaced (``node`` None)."""
    def mutate(doc):
        doc["layout"]["placement"].pop(label)
        if node is not None:
            doc["layout"]["placement"][label] = node
    return mutate


def bell(*shares, parties=("A", "B")):
    return {"kind": "CreateBell", "targets": list(shares), "parties": list(parties)}


def measure(*targets, outcome=None):
    return {"kind": "Measure", "targets": list(targets),
            **({} if outcome is None else {"outcome": outcome})}


def cond_x(target, *terms):
    return {"kind": "CondGate", "targets": [target], "gate": "X", "condition": {"xor": terms}}


# (home, mutation of DOC, message); an instruction's own rule names the instruction first
RULES = [
    # Instruction: what one instruction decides
    pytest.param("instruction", append({"kind": "LocalGate", "targets": ["a"]}),
                 "missing gate name: LocalGate", id="missing gate name"),
    pytest.param("instruction", append({**cond_x("a", "m"), "gate": None}),
                 "missing gate name: CondGate", id="missing conditioned gate name"),
    pytest.param("instruction", append({"kind": "LocalGate", "targets": ["a"], "gate": "NOPE"}),
                 "unknown gate name: 'NOPE'", id="unknown gate name"),
    pytest.param("instruction", append({"kind": "LocalGate", "targets": ["a"], "gate": "CZ"}),
                 "gate arity: CZ acts on 2 subsystems, got ('a',)", id="gate arity"),
    pytest.param("instruction",
                 append({"kind": "LocalGate", "targets": ["a", "a"], "gate": "CZ"}),
                 "duplicate target: ('a', 'a')", id="duplicate target"),
    pytest.param("instruction", append({**cond_x("b", "m"), "targets": ["b", "b"], "gate": "CZ"}),
                 "duplicate target: ('b', 'b')", id="duplicate conditioned target"),
    pytest.param("instruction", append({"kind": "CondGate", "targets": ["a"], "gate": "X"}),
                 "missing condition: CondGate without condition", id="missing condition"),
    pytest.param("instruction", append(measure(outcome="z")),
                 "measure arity: one target needed, got ()", id="measure of no target"),
    pytest.param("instruction", append(measure("a", "b", outcome="z")),
                 "measure arity: one target needed, got ('a', 'b')", id="measure of two targets"),
    pytest.param("instruction", append({**bell("f1", "f2"), "kind": "CreateGHZ"}),
                 "resource arity: CreateGHZ needs >= 3 parties (2 parties is a pair)",
                 id="two-party GHZ"),
    pytest.param("instruction", append(bell("f1", parties=("A",))),
                 "resource arity: CreateBell needs exactly 2 parties", id="one-party pair"),
    pytest.param("instruction", append(bell("f1")),
                 "resource shape: one created subsystem per party", id="one share of a pair"),
    pytest.param("instruction", append(bell("f1", "f1")),
                 "duplicate target: ('f1', 'f1')", id="duplicate share"),
    pytest.param("instruction", append({"kind": "ClassicalSend", "parties": ["A", "B"]}),
                 "missing symbol: ClassicalSend without symbol", id="send without a symbol"),
    pytest.param("instruction", append({"kind": "ClassicalSend", "parties": ["A"], "symbol": "m"}),
                 "message parties: need source and >= 1 destination", id="send to no one"),
    # the compile walk: what needs the circuit
    pytest.param("circuit", append({"kind": "LocalGate", "targets": ["b"], "gate": "X4"}),
                 "subsystem 'b' used with dimensions 2 and 4", id="dimensions"),
    pytest.param("circuit", append(cond_x("a", "m", "zz")),
                 f"instruction {END}: condition references unmeasured symbol 'zz'",
                 id="gate conditioned on an unmeasured outcome"),
    pytest.param("circuit", append({"kind": "ClassicalSend", "parties": ["A", "B"], "symbol": "m",
                                    "condition": {"xor": ["zz"]}}),
                 f"instruction {END}: condition references unmeasured symbol 'zz'",
                 id="send conditioned on an unmeasured outcome"),
    pytest.param("circuit", append(bell("f1", "f2"), measure("f1"), measure("f2", outcome="z"),
                                   cond_x("a", f"_m{END + 1}")),
                 f"instruction {END + 3}: condition references unmeasured symbol '_m{END + 1}'",
                 id="condition on an unnamed outcome"),
    pytest.param("circuit", append({"kind": "LocalGate", "targets": ["e1"], "gate": "H"}),
                 "unknown subsystem label 'e1'", id="gate on a measured label"),
    pytest.param("circuit", append(measure("e1", outcome="z")),
                 "unknown subsystem label 'e1'", id="measure of a measured label"),
    pytest.param("circuit", append(bell("a", "f2"), measure("f2", outcome="z")),
                 "label collision: {'a'}", id="label collision"),
    pytest.param("circuit", append({**bell("f1", "f2"), "kind": "CreateQuditPair", "dim": 2 ** 20},
                                   measure("f1"), measure("f2")),
                 "register dimension 4398046511104 exceeds cap 16384 (set DISTGATES_MAX_DIM to "
                 "raise it)", id="register cap"),
    # validate: the layout
    pytest.param("layout", place("f1", "C"),
                 "circuit: placement on undeclared node: f1 -> C",
                 id="placement on undeclared node"),
    pytest.param("layout", place("b", None),
                 "instruction 4: unplaced subsystem: b", id="unplaced subsystem"),
    pytest.param("layout", append({"kind": "LocalGate", "targets": ["a", "b"], "gate": "CZ"}),
                 f"instruction {END}: cross-node local gate: targets ('a', 'b') span nodes "
                 "['A', 'B']", id="cross-node local gate"),
    pytest.param("layout", append(bell("f1", "f2", parties=("A", "C")), measure("f1"),
                                  measure("f2")),
                 f"instruction {END}: undeclared party node: C", id="undeclared party node"),
    pytest.param("layout", append(bell("f1", "f2")),
                 f"instruction {END}: unconsumed communication subsystem: f1",
                 id="unconsumed communication subsystem"),
]


@pytest.fixture(autouse=True)
def default_cap(monkeypatch):
    monkeypatch.delenv("DISTGATES_MAX_DIM", raising=False)


def bad_document(mutate) -> dict:
    doc = copy.deepcopy(DOC)
    mutate(doc)
    return doc


def instruction(fields: dict) -> Instruction:
    """The instruction a wire-form object describes, built directly."""
    fields = dict(fields)
    if "condition" in fields:
        fields["condition"] = Condition(fields["condition"]["xor"])
    return Instruction(**fields)


def circuit_of(doc: dict) -> DistCircuit:
    layout = NodeLayout(doc["layout"]["nodes"], doc["layout"]["placement"])
    return DistCircuit(layout, [instruction(ins) for ins in doc["instructions"]],
                       doc["inputs"], doc["outputs"])


def test_the_valid_circuit_passes_every_home():
    circuit = circuit_of(DOC)
    assert validate(circuit) == []
    assert verify(circuit, OracleSpec("gcz"), [random_register(("a", "b"), (2, 2), seed=3)]).passed


@pytest.mark.parametrize("home,mutate,message", RULES)
def test_each_rule_is_refused_in_its_home_by_the_library(home, mutate, message):
    doc = bad_document(mutate)
    if home == "instruction":  # refused when the bad instruction is built: no circuit holds it
        with pytest.raises(ValueError) as refused:
            instruction(doc["instructions"][END])
        assert str(refused.value) == message
        return
    circuit = circuit_of(doc)
    if home == "layout":  # the simulator ignores placement: only validate refuses it
        assert message in [str(v) for v in validate(circuit)]
        compile_plan(circuit)
        return
    assert validate(circuit) == []  # the layout is sound: only the walk refuses it
    state = random_register(("a", "b"), (2, 2), seed=3)
    exactly = f"^{re.escape(message)}$"
    with pytest.raises(ValueError, match=exactly):
        compile_plan(circuit)
    for merge in (False, True):
        with pytest.raises(ValueError, match=exactly):
            enumerate_branches(circuit, state, merge_equal=merge)
        with pytest.raises(ValueError, match=exactly):
            verify(circuit, OracleSpec("gcz"), [state], merge=merge)


@pytest.mark.parametrize("command", [["verify", "--oracle", "gcz"], ["simulate"]],
                         ids=["verify", "simulate"])
@pytest.mark.parametrize("home,mutate,message", RULES)
def test_each_rule_exits_2_from_the_cli_with_its_message(home, mutate, message, command,
                                                         tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(bad_document(mutate)))
    code = main([command[0], "--circuit", str(path), *command[1:]])
    out, err = capsys.readouterr()
    assert code == 2 and out == ""
    if home == "instruction":
        assert err == f"error: instruction {END}: {message}\n"
    elif home == "circuit":
        assert err == f"error: {message}\n"
    else:
        assert message + "\n" in err
