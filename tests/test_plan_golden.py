"""Golden plan shapes: one SHA-256 per circuit of what ``compile_plan`` returns besides its
step functions.

Each digest covers the plan's ``peak``, ``simulated_peak``, ``row_bound``,
``branch_bound``, ``gadgets``, ``fused``, ``labels`` and ``out_dims``, its step
count, and each step's kind (the name of the function it runs, or None) and
merge key spec. The circuits are the corpus, the 35 suite circuits, each with
one CondGate dropped in turn, and the five widest CLI shapes; the corpus and
suite circuits also as a prefix of half their instructions. A change to how
plans are compiled that keeps the plans keeps these digests. The reference
hashes live in ``plan_golden_sha256.json`` next to this file; after a
deliberate change to plan shapes, regenerate them with::

    PYTHONPATH=src python tests/test_plan_golden.py > tests/plan_golden_sha256.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from test_sparse_rows import CLI_WIDE, _everything

from distgates.simulate import compile_plan

GOLDEN = Path(__file__).with_name("plan_golden_sha256.json")


def _cases() -> dict[str, tuple]:
    """name -> (circuit, upto) of every plan the digests cover."""
    cases = {}
    for name, circuit in _everything() + [(name, build()) for name, build in CLI_WIDE]:
        cases[name] = circuit, None
        if " -#" not in name:  # the variants' prefixes are those of their circuits
            cases[f"{name} upto half"] = circuit, len(circuit.instructions) // 2
    return cases


def shape(circuit, upto) -> str:
    """The SHA-256 of ``compile_plan(circuit, upto)``'s shape (see the module docstring)."""
    plan = compile_plan(circuit, upto)
    steps = [(step and step.__qualname__.split(".")[0], live) for step, live in plan.steps]
    doc = [plan.peak, plan.simulated_peak, plan.row_bound, plan.branch_bound, plan.gadgets,
           plan.fused, plan.labels, plan.out_dims, len(plan.steps), steps]
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


CASES = _cases()


def test_golden_covers_every_case():
    assert sorted(json.loads(GOLDEN.read_text())) == sorted(CASES)


def test_plan_shapes_match_golden():
    expected = json.loads(GOLDEN.read_text())
    wrong = [name for name, (circuit, upto) in CASES.items()
             if shape(circuit, upto) != expected[name]]
    assert not wrong, wrong


if __name__ == "__main__":
    print(json.dumps({name: shape(*case) for name, case in sorted(CASES.items())}, indent=2))
