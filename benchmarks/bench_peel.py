#!/usr/bin/env python3
"""Benchmark 2-core peeling on random unconstrained instances.

Times `peel.two_core` (trace and core instance built) and
`peel.core_density` (counts only) at k=3, c=0.95, above the 2-core
threshold c = 0.818, so about two thirds of the variables survive.  Prints
one JSON object per size with the round count, the trace length and the
best ms per call.  Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_peel.py [--sizes 10000,100000,1000000] [--repeat 3]
"""

from __future__ import annotations

import argparse
import json
import time

from xorsatlab import peel
from xorsatlab.instances import gen_unconstrained
from xorsatlab.rng import Seed

K, C = 3, 0.95


def best_ms(fn, inst, repeat):
    best = float("inf")
    for _ in range(repeat):
        t0 = time.perf_counter()
        out = fn(inst)
        best = min(best, time.perf_counter() - t0)
    return best * 1e3, out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="10000,100000,1000000")
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()
    for n in (int(s) for s in args.sizes.split(",")):
        inst = gen_unconstrained(K, round(C * n), n, Seed(0))
        two_core_ms, (_, trace, stats) = best_ms(peel.two_core, inst, args.repeat)
        density_ms, density = best_ms(peel.core_density, inst, args.repeat)
        assert density == stats, "core_density disagrees with two_core"
        rounds = peel._peel_rounds(peel._incidence(inst), inst.n)[-1]
        row = {
            "k": K,
            "n": n,
            "m": inst.m,
            "rounds": rounds,
            "steps": len(trace.steps),
            "core_vars": stats.core_vars,
            "core_eqs": stats.core_eqs,
            "two_core_ms": round(two_core_ms, 2),
            "core_density_ms": round(density_ms, 2),
        }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
