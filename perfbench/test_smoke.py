"""Smoke test of the benchmark itself (not of corrhit).

    python3 -m pytest perfbench/test_smoke.py

Runs one round of every workload, untraced and traced, in this process and
checks that every metric named in BENCHMARK.json is printed with its unit,
that a corrupted expected value is counted as a failure, and that a tree
without corrhit sources exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import checks  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def one_round(monkeypatch):
    """Shrink every run to a single round and a single set-up sample."""
    monkeypatch.setattr(run, "MIN_JOBS", 1)
    monkeypatch.setattr(run, "SETUP_SAMPLES", 1)
    monkeypatch.setattr(run, "TRACE_PAIRS", {w: 1 for w in WORKLOADS})


def result(capsys, argv) -> tuple[list[str], dict]:
    assert run.main(argv) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,group", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_printed_with_unit(one_round, capsys, workload, trace, group):
    lines, res = result(capsys, ["--workload", workload, "--seed", "3",
                                 "--seconds", "0", "--trace", str(trace)])
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC[group]}
    assert set(res["metrics"]) == set(wanted)
    for name, unit in wanted.items():
        assert res["metrics"][name]["unit"] == unit
        assert isinstance(res["metrics"][name]["value"], (int, float))
        assert any(line.startswith(f"{name} ") and line.endswith(f" {unit}") for line in lines)
    if trace == 0:
        assert any(line.startswith("fail_ratio 0.000000 ratio") for line in lines)


def test_corrupted_expected_value_counts_as_failure(one_round, capsys, monkeypatch):
    closed_form = checks.ap3_measure
    monkeypatch.setattr(checks, "ap3_measure", lambda n: closed_form(n) + 1)
    lines, res = result(capsys, ["--workload", "hit_dp", "--seed", "3",
                                 "--seconds", "0", "--trace", "0"])
    import workloads

    assert not res["correct"]
    assert res["failed"] == len(workloads.HitDP.THREE_SET_N)
    assert any(line.startswith("fail_ratio") and not line.startswith("fail_ratio 0.000000")
               for line in lines)


def test_tree_without_sources_exits_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
