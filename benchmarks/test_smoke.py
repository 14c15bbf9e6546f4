"""Smoke test for the benchmark: every workload, at a tiny size, emits every
metric named in BENCHMARK.json with its unit and passes its gates.

Run from the repository root:  python -m pytest benchmarks/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]
import run as bench  # noqa: E402
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_benchmark(workload, trace, cwd=ROOT):
    command = [sys.executable] + SPEC["command"][1:]
    args = ["--workload", workload, "--seed", "3", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command + args + ["--tiny"], cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = run_benchmark(workload, trace)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    report, result = json.loads(lines[0]), json.loads(lines[-1])
    assert report["counter_errors"] == 0
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in expected]
    for metric in expected:
        emitted = result["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float)) and math.isfinite(emitted["value"])
        if not trace:
            assert emitted["value"] > 0, metric["name"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_benchmark(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_a_failing_command_counts_as_failed(tmp_path, monkeypatch):
    """Every other eval reads a corrupt CSV: the CLI exits 1 before its first
    unit of work, and those repeats count in ``failed`` while the rest give the metrics."""
    corrupt = tmp_path / "corrupt.csv"
    corrupt.write_text("a,b,label\n1.0,not-a-number,0\n", encoding="utf-8")
    spawn, evals = bench.spawn, []

    def spawn_corrupting(command, cli_args, traced):
        if command == "eval":
            evals.append(cli_args)
            if len(evals) % 2 == 0:
                cli_args = [str(corrupt) if a.endswith(".csv") else a for a in cli_args]
        return spawn(command, cli_args, traced)

    monkeypatch.setattr(bench, "spawn", spawn_corrupting)
    result = bench.run_workload("protocol_b128", 3, 1.0, False, bench.TINY)
    assert result["correct"] is False
    assert result["failed"] == len(evals) // 2 >= 1
    assert list(result["metrics"]) == [m["name"] for m in SPEC["end_to_end"]]
    assert 0 < result["metrics"]["ok_rate"]["value"] < 1
