"""Golden builder output: the SHA-256 of ``serialize()`` for a fixed set of builder shapes.

The round-trip tests compare a circuit with itself; these pin every builder's
output to a fixed reference, so a refactor that reorders, relabels or
re-parametrizes a single instruction fails here. The reference hashes live in
``builder_golden_sha256.json`` next to this file. After a deliberate change to
builder output, regenerate them with::

    PYTHONPATH=src python tests/test_builder_golden.py > tests/builder_golden_sha256.json
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

import pytest

from conftest import builder_corpus, one_per_node_layout, qudit_gcz_setup
from distgates import (GateRef, GmsSpec, NodeLayout, Partition, build_dcontrol_u,
                       build_dcsum4, build_dcsum4_multitarget, build_dcz4_pow, build_dgcz,
                       build_dgms, build_fanout, build_qudit_gcz, serialize)
from distgates.cli import block_layout

GOLDEN = Path(__file__).with_name("builder_golden_sha256.json")
THETAS = {"pi_2": math.pi / 2, "pi_3": math.pi / 3, "0.7": 0.7}


def golden_shapes() -> dict:
    """Every pinned shape, by id: zero-argument callables that build the circuit."""
    shapes = {f"corpus_{name}": (lambda c=c: c) for name, c in builder_corpus().items()}

    for n in range(2, 9):
        for nodes in (d for d in range(1, n + 1) if n % d == 0):
            layout, labels = block_layout(n, nodes)
            strategies = ("pairwise", "fanout") + (("teleport_all",) if nodes == 2 else ())
            for strategy in strategies:
                shapes[f"gcz{n}_{nodes}n_{strategy}"] = (
                    lambda lay=layout, lab=labels, s=strategy: build_dgcz(lab, Partition(lay), s))

    for n in range(2, 7):
        layout, labels = one_per_node_layout(n)
        for strategy in ("pairwise", "pairwise_conditional", "fanout"):
            for tname, theta in THETAS.items():
                shapes[f"gms{n}_{strategy}_{tname}"] = (
                    lambda lay=layout, spec=GmsSpec(labels, theta), s=strategy:
                    build_dgms(spec, lay, s))

    for n in (4, 6, 8):
        shapes[f"qudit_gcz{n}"] = lambda n=n: build_qudit_gcz(n, *qudit_gcz_setup(n)[:2])

    for k in range(1, 5):
        qudits = tuple(f"Q{i}" for i in range(k + 1))
        layout = NodeLayout(tuple(f"n{i}" for i in range(k + 1)),
                            {q: f"n{i}" for i, q in enumerate(qudits)})
        for op in ("csum", "cz4_sq"):
            shapes[f"dcsum4_multi_{k}t_{op}"] = (
                lambda lay=layout, q=qudits, op=op:
                build_dcsum4_multitarget(q[0], q[1:], lay, op))

    mixed = NodeLayout(("A", "B", "C"),
                       {"c": "A", "t1": "A", "t2": "B", "t3": "B", "t4": "C"})
    for name in ("X", "Z"):
        targets = [(t, GateRef(name)) for t in ("t1", "t2", "t3", "t4")]
        shapes[f"fanout_local_remote_{name}"] = (
            lambda t=targets: build_fanout("c", t, mixed))
    rz_targets = [("t2", GateRef("RZ", (0.7,))), ("t3", GateRef("RZ", (math.pi / 3,))),
                  ("t4", GateRef("RZ", (-math.pi / 2,)))]
    shapes["fanout_remote_RZ"] = lambda: build_fanout("c", rz_targets, mixed)

    lay2 = NodeLayout(("A", "B"), {"c": "A", "t": "B"})
    for u in (GateRef("X"), GateRef("Z"), GateRef("RZ", (0.7,))):
        shapes[f"dcu_{u.name}"] = lambda u=u: build_dcontrol_u("c", "t", u, lay2)
    qlay2 = NodeLayout(("n1", "n2"), {"Q1": "n1", "Q2": "n2"})
    shapes["dcsum4"] = lambda: build_dcsum4("Q1", "Q2", qlay2)
    for power in (1, 2):
        shapes[f"dcz4_pow{power}"] = lambda p=power: build_dcz4_pow("Q1", "Q2", p, qlay2)
    return shapes


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


SHAPES = golden_shapes()
EXPECTED = json.loads(GOLDEN.read_text())


def test_golden_covers_every_shape():
    assert sorted(EXPECTED) == sorted(SHAPES)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_builder_output_matches_golden(shape):
    assert digest(serialize(SHAPES[shape]())) == EXPECTED[shape]


if __name__ == "__main__":
    print(json.dumps({shape: digest(serialize(build())) for shape, build in sorted(SHAPES.items())},
                     indent=2))
