#!/usr/bin/env python3
"""Benchmark the chip-model and constrained samplers.

Times `instances.gen_constrained` (rejection from the chip model) and
`instances.gen_C_model` (one chip allocation) at k=4, n=1000 for
m = 900, 1000, 1100, the criterion 07 shapes and the threshold between
them.  Every chip attempt is one call of `instances._gen_C`, counted by
wrapping that name.  Prints one JSON object per sampler and shape: chip
attempts per instance, us per attempt, ms per instance, and the mean
degree-vector candidate count (`retries`) against its expectation
1/P(S_n = km).  Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_sampler.py [--ms 900,1000,1100] [--instances 20]
"""

from __future__ import annotations

import argparse
import json
import time

from xorsatlab import instances
from xorsatlab.rng import Seed

K, N = 4, 1000


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--ms", default="900,1000,1100")
    ap.add_argument("--instances", type=int, default=20)
    args = ap.parse_args()
    gen_C = instances._gen_C
    tally = {"attempts": 0, "retries": 0}

    def counted_gen_C(*a, **kw):
        alloc = gen_C(*a, **kw)
        tally["attempts"] += 1
        tally["retries"] += alloc.retries
        return alloc

    instances._gen_C = counted_gen_C
    try:
        for m in (int(s) for s in args.ms.split(",")):
            p_hit = instances._degree_law(K, m, N).p_hit
            for sampler in (instances.gen_constrained, instances.gen_C_model):
                tally.update(attempts=0, retries=0)
                t0 = time.perf_counter()
                for i in range(args.instances):
                    sampler(K, m, N, Seed(0, i))
                seconds = time.perf_counter() - t0
                row = {
                    "sampler": sampler.__name__,
                    "k": K,
                    "n": N,
                    "m": m,
                    "instances": args.instances,
                    "attempts_per_instance": tally["attempts"] / args.instances,
                    "us_per_attempt": round(seconds / tally["attempts"] * 1e6, 1),
                    "ms_per_instance": round(seconds / args.instances * 1e3, 2),
                    "mean_retries": round(tally["retries"] / tally["attempts"], 1),
                    "expected_retries": round(1 / p_hit, 1),
                }
                print(json.dumps(row), flush=True)
    finally:
        instances._gen_C = gen_C
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
