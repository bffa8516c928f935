"""Smoke tests for the benchmark.

Each workload runs at a tiny shape, untraced and traced, and must print
every metric BENCHMARK.json declares, with its unit.  A corrupted output
must give a nonzero exit, and so must a directory without package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(run_py: Path, workload: str, trace: int, *extra: str):
    proc = subprocess.run(
        [sys.executable, str(run_py), "--workload", workload, "--seed", "7", "--seconds", "0.5",
         "--trace", str(trace), "--shape", "tiny", *extra],
        capture_output=True, text=True, cwd=run_py.parent.parent, timeout=170,
    )
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_run_prints_every_declared_metric_with_unit(workload, trace):
    proc, result = run_bench(HERE / "run.py", workload, trace)
    assert proc.returncode == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == declared
    for name, unit in declared.items():
        value = result["metrics"][name]["value"]
        assert isinstance(value, float) and value == value
        assert any(line.split()[:1] == [name] and line.split()[2] == unit for line in proc.stdout.splitlines())
    assert "failed_frac" in proc.stdout
    assert '"kernel_backend"' in proc.stdout and '"git_rev"' in proc.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_forced_check_failure_exits_nonzero(workload):
    proc, result = run_bench(HERE / "run.py", workload, 0, "--inject-fault")
    assert proc.returncode == 1
    assert result["correct"] is False and result["failed"] >= 1


def test_without_package_source_exits_nonzero_without_result(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        shutil.copy(path, bench)
    proc, result = run_bench(bench / "run.py", "sat_k3_n3000", 0)
    assert proc.returncode != 0
    assert result is None
