#!/usr/bin/env python3
"""Benchmark unconstrained sampling and 2-core peeling at core_check shapes.

Times `gen_unconstrained` and `two_core` at k=3 for each density in --c
(default 0.95, criterion 08's density; 0.818 sits at the core threshold
c_3 = 0.818469, where the peel runs hundreds of rounds) and each size, one
JSON line per (density, size): milliseconds per call (median over --repeat
fresh instances), the number of peel rounds (counted in one more, untimed
peel of the last instance), the core size and the process's peak RSS so
far.  Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_peel.py [--sizes 10000,100000,1000000] [--c 0.818,0.95] [--repeat 5]
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import time

from xorsatlab import peel
from xorsatlab.instances import gen_unconstrained
from xorsatlab.rng import Seed

K = 3


def peel_rounds(inst) -> int:
    """Rounds of the synchronous peel of `inst`.

    Every round of `peel._peel_rounds` ends in one `peel._next_frontier`
    call, the last returning an empty frontier, so the calls made by one
    more run of it are the rounds; no core, trace or list is built.
    """
    calls = 0
    next_frontier = peel._next_frontier

    def counting(cand, mark):
        nonlocal calls
        calls += 1
        return next_frontier(cand, mark)

    peel._next_frontier = counting
    try:
        peel._peel_rounds(inst.index, inst.n)
    finally:
        peel._next_frontier = next_frontier
    return calls


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="10000,100000,1000000")
    ap.add_argument("--c", default="0.95", help="comma list of densities m / n")
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    peel.two_core(gen_unconstrained(K, 10, 10, Seed(0)))  # first-call costs stay out of the timings
    for c, n in ((float(c), int(s)) for c in args.c.split(",") for s in args.sizes.split(",")):
        m = int(c * n)
        gen_s, peel_s = [], []
        for i in range(args.repeat):
            inst = core = None  # the last draw is freed before the next, outside the timings
            t0 = time.perf_counter()
            inst = gen_unconstrained(K, m, n, Seed(n, i))
            t1 = time.perf_counter()
            core = peel.two_core(inst)[0]
            t2 = time.perf_counter()
            gen_s.append(t1 - t0)
            peel_s.append(t2 - t1)
        print(json.dumps({
            "k": K, "c": c, "n": n, "m": m, "repeat": args.repeat,
            "gen_unconstrained_ms": round(statistics.median(gen_s) * 1e3, 3),
            "two_core_ms": round(statistics.median(peel_s) * 1e3, 3),
            # of the last instance
            "rounds": peel_rounds(inst),
            "core_vars": core.n,
            "core_eqs": core.m,
            "peak_rss_mb": round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 1),
        }), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
