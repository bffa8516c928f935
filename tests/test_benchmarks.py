"""Smoke runs of the scripts under `benchmarks/`.

`bench_gf2.py`, the compiled-versus-fallback kernel timing, imports
`xorsatlab._kernel.fallback` and `_ext` directly and builds its systems with
`BitMatrix.from_dense` and `from_sparse_rows`, so a change to those names or
to the `eliminate_words(words, ncols)` contract would break it without any
other test failing; without a built `_ext` it times the fallback alone.
`bench_peel.py` times `gen_unconstrained` and `two_core` and reads the peel
rounds back from the trace's `steps`; it runs once at its default density and
once at two, with one line per density.  Each runs once, in a fresh
interpreter with PYTHONPATH=src, at its smallest arguments.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


# fixed ids: test lists name the cases by them
@pytest.mark.parametrize("script,args", [("bench_gf2.py", ["--sizes", "64", "--repeat", "1"]),
                                         ("bench_peel.py", ["--sizes", "1000", "--repeat", "1"]),
                                         ("bench_peel.py", ["--sizes", "1000", "--repeat", "1", "--c", "0.818,0.95"])],
                         ids=["bench_gf2.py-args1-False", "bench_peel.py-args1", "bench_peel.py-densities"])
def test_benchmark_script_runs(script, args):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "benchmarks" / script), *args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()
    if "--c" in args:
        assert [json.loads(line)["c"] for line in proc.stdout.splitlines()] == [0.818, 0.95]
