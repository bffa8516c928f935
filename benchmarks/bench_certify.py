#!/usr/bin/env python3
"""Benchmark building and replaying the four negativity certificates.

Builds each claim with `certify.certify_claim` (amed at k=4, k3grid with
its default c range and target, alarge, monotone) and replays it with
`certify.replay_certificate`, the calls one perfbench `certify_all` round
makes.  Prints one JSON object per claim with the cell count and the
median build and replay ms over the repeats.  Run from the repo root:

    PYTHONPATH=src python benchmarks/bench_certify.py [--claims amed,k3grid,alarge,monotone] [--repeat 5]
"""

from __future__ import annotations

import argparse
import json
import statistics
import time

from xorsatlab import certify


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--claims", default="amed,k3grid,alarge,monotone")
    ap.add_argument("--repeat", type=int, default=5)
    args = ap.parse_args()
    for claim in args.claims.split(","):
        build, replay = [], []
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            cert = certify.certify_claim(claim, k=4 if claim == "amed" else None)
            t1 = time.perf_counter()
            ok = certify.replay_certificate(cert)
            replay.append(time.perf_counter() - t1)
            build.append(t1 - t0)
            assert cert.verified and ok, f"{claim} did not verify or replay"
        row = {
            "claim": claim,
            "cells": len(cert.cells),
            "build_ms": round(statistics.median(build) * 1e3, 2),
            "replay_ms": round(statistics.median(replay) * 1e3, 2),
        }
        print(json.dumps(row), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
