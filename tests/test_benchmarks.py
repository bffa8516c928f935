"""Smoke runs of the scripts under benchmarks/.

They reach private names (`peel._peel_rounds`, `instances._gen_C`, ...), so
a signature change there would break them without any other test failing.
Each runs once, in a fresh interpreter with PYTHONPATH=src, at its
smallest arguments.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("script,args,json_lines", [
    ("bench_peel.py", ["--sizes", "1000", "--repeat", "1"], True),
    ("bench_gf2.py", ["--sizes", "64", "--repeat", "1"], False),
    ("bench_sampler.py", ["--ms", "900", "--instances", "1"], True),
    ("bench_certify.py", ["--claims", "amed,monotone", "--repeat", "1"], True),
])
def test_benchmark_script_runs(script, args, json_lines):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines
    if json_lines:
        assert all(isinstance(json.loads(line), dict) for line in lines)
