"""The exact reports pinned in perfbench/pins.json, recomputed byte for byte.

Each pin is the sha256 of `run_suite(...).to_json()` for one suite call of
the benchmark at its default seed.  The file is only read here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from fqmrep.harness import SuiteSpec, run_suite

PINS = json.loads((Path(__file__).resolve().parents[1] / "perfbench" / "pins.json").read_text())


def test_every_pin_is_read():
    assert len(PINS) == 22


@pytest.mark.parametrize("key", sorted(PINS))
def test_pinned_report_bytes(key):
    suite, params = json.loads(key)
    report = run_suite(SuiteSpec(suite, params)).to_json()
    assert hashlib.sha256(report.encode()).hexdigest() == PINS[key]
