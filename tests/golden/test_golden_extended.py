"""The extended golden oracle: shapes and byte streams the smoke matrix
does not reach.

``golden_extended.json`` (written by ``tests/golden/generate.py``)
pins composed ``barrier: false`` suites, zero-access kernels, a
churning multi-tenant suite, an L2-thrashing victim-cache run, the
metrics JSONL and Chrome trace of observed runs, and decision-ledger
exports.  Every serialised result must match bit for bit; the byte
streams must hash identically.

One exception: a trace is compared as a sorted multiset of events.
The MEE places each metadata transfer on its channel (and emits its
``mee_op`` span) the moment a policy emits it, so MEE instant events
(``victim_hit``, verdicts) interleave with the spans of the same
access instead of all preceding them.  ``trace_sha256`` records the
byte digest of the oracle's run and is not compared.
"""

from __future__ import annotations

import importlib.util
import json
from pathlib import Path

import pytest

HERE = Path(__file__).parent
GOLDEN = HERE / "golden_extended.json"

_spec = importlib.util.spec_from_file_location("golden_generate",
                                               HERE / "generate.py")
generate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(generate)


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN.read_text())


def test_golden_extended_covers_every_cell(golden):
    assert sorted(golden["cells"]) == sorted(generate.EXTENDED_CELLS)


@pytest.mark.parametrize("cell", sorted(generate.EXTENDED_CELLS))
def test_extended_cell_bit_identical(cell, golden):
    expected = dict(golden["cells"][cell])
    actual = generate.EXTENDED_CELLS[cell]()
    if "trace_sha256" in expected:
        expected.pop("trace_sha256")
        actual.pop("trace_sha256")
    assert actual == expected, f"{cell}: drifted from golden_extended.json"
