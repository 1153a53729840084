"""Property test: mutated builder documents parse cleanly or fail cleanly, never crash."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from conftest import builder_corpus
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distgates import deserialize, serialize, validate
from distgates.circuit import CircuitParseError
from distgates.cli import main

DOCS = {name: json.loads(serialize(c)) for name, c in builder_corpus().items()}
NAMES = sorted(DOCS)

# values put in place of any field: wrong types, strings for lists, out-of-range numbers
JUNK = [None, True, 0, 1, -1, 3, 2 ** 40, 1.5, "4", "ctrl", "", [], {}, ["x"], [1, 2],
        [["a"]], {"kind": "Measure"}]
DIMS = [0, 1, -1, 3, 5, 100000, 2 ** 40, "4", 4.0, None, [4]]


def oracle_args(name: str) -> list[str]:
    if name.startswith("gms"):
        return ["--oracle", "gms", "--theta", "pi/2"]
    for prefix, kind in (("gcz", "gcz"), ("dcz", "gcz"), ("qudit_gcz", "qudit_gcz"),
                         ("dcsum4_multi", "csum4_multi"), ("dcsum4", "csum4"),
                         ("dcz4_sq", "cz4_sq"), ("dcz4", "cz4")):
        if name.startswith(prefix):
            return ["--oracle", kind]
    return ["--oracle", "cnot"]


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
