"""Golden builder output: the SHA-256 of ``serialize()`` for every catalog entry,
and every entry under the register cap verified against its oracle.

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
# the entries whose peak register exceeds the default 2^14 cap: pinned, not verified
OVER_CAP = ("dcsum4_multi_3t_csum", "dcsum4_multi_3t_cz4_sq", "dcsum4_multi_4t_csum",
            "dcsum4_multi_4t_cz4_sq", "gcz8_8n_fanout", "qudit_gcz8")


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


@pytest.mark.parametrize("shape", sorted(set(SHAPES) - set(OVER_CAP)))
def test_builder_output_passes_its_oracle(shape):
    entry = SHAPES[shape]
    circuit = entry.build()
    report = verify(circuit, entry.make_oracle(), random_inputs(circuit, 3, seed=11))
    assert report.min_fidelity >= 1 - 1e-9, report.min_fidelity


if __name__ == "__main__":
    print(json.dumps({shape: digest(serialize(entry.build()))
                      for shape, entry in sorted(SHAPES.items())}, indent=2))
