"""Golden builder output: the SHA-256 of ``serialize()`` for every catalog entry,
and every entry verified against its oracle, the register cap raised for the few
entries over it, whose dropped corrections are all caught as well.

The round-trip tests compare a circuit with itself; these pin every builder's
output to a fixed reference, so a refactor that reorders, relabels or
re-parametrizes a single instruction fails here. The reference hashes live in
``builder_golden_sha256.json`` next to this file, one per ``golden`` entry of
``distgates.catalog``. After a deliberate change to builder output, regenerate
them from the catalog with::

    PYTHONPATH=src python tests/test_builder_golden.py > tests/builder_golden_sha256.json
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from distgates import catalog, peak_register_dim, serialize
from distgates.statevec import DEFAULT_MAX_DIM
from distgates.verify import random_inputs, verify

GOLDEN = Path(__file__).with_name("builder_golden_sha256.json")
SHAPES = catalog.tagged("golden")
EXPECTED = json.loads(GOLDEN.read_text())
# the entries whose peak register exceeds the default 2^14 cap; verified under OVER_CAP_DIM
OVER_CAP = ("dcsum4_multi_3t_csum", "dcsum4_multi_3t_cz4_sq", "dcsum4_multi_4t_csum",
            "dcsum4_multi_4t_cz4_sq", "gcz8_8n_fanout", "qudit_gcz8")
OVER_CAP_DIM = 2 ** 20  # their largest peak register


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def test_golden_covers_every_shape():
    assert sorted(EXPECTED) == sorted(SHAPES)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_builder_output_matches_golden(shape):
    assert digest(serialize(SHAPES[shape].build())) == EXPECTED[shape]


def test_only_the_named_entries_exceed_the_register_cap():
    over = [name for name, entry in SHAPES.items()
            if peak_register_dim(entry.build()) > DEFAULT_MAX_DIM]
    assert sorted(over) == sorted(OVER_CAP)


@pytest.mark.parametrize("shape", sorted(SHAPES))
def test_builder_output_passes_its_oracle(shape, monkeypatch):
    if shape in OVER_CAP:
        monkeypatch.setenv("DISTGATES_MAX_DIM", str(OVER_CAP_DIM))
    entry = SHAPES[shape]
    circuit = entry.build()
    report = verify(circuit, entry.make_oracle(), random_inputs(circuit, 3, seed=11))
    assert report.min_fidelity >= 1 - 1e-9, report.min_fidelity


@pytest.mark.parametrize("shape", OVER_CAP)
def test_over_cap_entries_catch_every_dropped_correction(shape, monkeypatch):
    monkeypatch.setenv("DISTGATES_MAX_DIM", str(OVER_CAP_DIM))
    entry = SHAPES[shape]
    circuit = entry.build()
    dropped = [i for i, ins in enumerate(circuit.instructions) if ins.kind == "CondGate"]
    assert dropped
    for i in dropped:
        variant = type(circuit)(circuit.layout, circuit.instructions[:i]
                                + circuit.instructions[i + 1:], circuit.inputs, circuit.outputs)
        report = verify(variant, entry.make_oracle(), random_inputs(variant, 3, seed=11))
        assert report.min_fidelity < 1 - 1e-3, (i, report.min_fidelity)


if __name__ == "__main__":
    print(json.dumps({shape: digest(serialize(entry.build()))
                      for shape, entry in sorted(SHAPES.items())}, indent=2))
