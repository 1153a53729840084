"""Property test: mutated builder documents parse cleanly or fail cleanly, never crash."""

import contextlib
import copy
import io
import json
import tempfile
from pathlib import Path

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from distgates import catalog, deserialize, serialize, validate
from distgates.circuit import CircuitParseError
from distgates.cli import main
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
