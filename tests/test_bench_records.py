"""The committed benchmark records: every BENCH_*.json at the repository root
parses, says what it records, and holds only checked runs with no failure."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=lambda p: p.name)
def test_record_runs_are_checked_and_clean(path):
    data = json.loads(path.read_text())
    assert isinstance(data["about"], str) and data["about"]
    runs = data["runs"]
    assert runs
    for run in runs:
        result = run["result"]
        assert result["correct"] is True, run
        assert result["failed"] == 0, run
