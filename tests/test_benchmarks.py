"""Smoke runs of the scripts under `benchmarks/`.

`bench_gf2.py`, the compiled-versus-fallback kernel timing, imports
`xorsatlab._kernel.fallback` and `_ext` directly and builds its systems with
`BitMatrix.from_dense` and `from_sparse_rows`, so a change to those names or
to the `eliminate_words(words, ncols)` contract would break it without any
other test failing; without a built `_ext` it times the fallback alone.
`bench_peel.py` times `gen_unconstrained` and `two_core` and counts the peel
rounds in one more peel; it runs once at its default density and once at two,
with one line per density.  Each runs once, in a fresh interpreter with
PYTHONPATH=src, at its smallest arguments.  Its round count is also checked
against the rounds read back from the trace.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from xorsatlab.instances import Instance, gen_unconstrained
from xorsatlab.peel import two_core
from xorsatlab.rng import Seed

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


def rounds_from_trace(inst, trace) -> int:
    """Rounds of the synchronous peel, read back from its trace.

    A variable is removed one round after its degree last fell (round 0 when
    it starts at degree <= 1), and every variable of a removed equation has
    its degree fall in the round of that removal; the trace lists removals
    in round order, so one pass assigns every round.
    """
    rows = inst.rows
    fell = [0] * inst.n
    last = 0
    for v, e in trace.steps.tolist():
        last = fell[v] + 1
        if e >= 0:
            for u in rows[e]:
                fell[u] = last
    return last


@pytest.mark.parametrize("c", [0.818, 0.95])
def test_bench_peel_rounds_match_the_trace(c):
    spec = importlib.util.spec_from_file_location("bench_peel", ROOT / "benchmarks" / "bench_peel.py")
    bench_peel = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_peel)
    n = 1000
    for i in range(10):
        inst = gen_unconstrained(3, int(c * n), n, Seed(n, i))
        assert bench_peel.peel_rounds(inst) == rounds_from_trace(inst, two_core(inst)[1])
    # a peel whose first frontier is empty has no round; one with no equation has one
    for inst, rounds in ((Instance(3, 3, 2, [[0, 1, 2], [0, 1, 2]], [0, 1], "unconstrained"), 0),
                         (gen_unconstrained(3, 0, 3, Seed(0)), 1)):
        assert bench_peel.peel_rounds(inst) == rounds_from_trace(inst, two_core(inst)[1]) == rounds
