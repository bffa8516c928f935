#!/usr/bin/env python3
"""Benchmark the compiled GF(2) kernel against the pure-Python fallback.

Times forward elimination to row echelon form (what `gf2.rank` runs, and
what `gf2.solve` runs on the dense residue its sparse front end leaves) on
random dense square systems and on peeled-core-shaped random sparse
systems, for each backend.  Run from the repo root, after building the
compiled kernel in place:

    python setup.py build_ext --inplace
    python benchmarks/bench_gf2.py [--sizes 512,1024,2048] [--repeat 3]
"""

from __future__ import annotations

import argparse
import json
import time

import numpy as np

from xorsatlab._kernel import fallback
from xorsatlab.gf2 import BitMatrix

try:
    from xorsatlab._kernel import _ext

    BACKENDS = {"ext": _ext.eliminate_words, "python": fallback.eliminate_words}
except ImportError:  # compiled kernel not built
    BACKENDS = {"python": fallback.eliminate_words}


def random_dense(rng, rows, cols):
    return BitMatrix.from_dense(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))


def random_sparse(rng, rows, cols, k=3):
    idx = [sorted(rng.choice(cols, size=k, replace=False).tolist()) for _ in range(rows)]
    return BitMatrix.from_sparse_rows(cols, idx)


def bench(fn, mat, ncols, repeat):
    best = float("inf")
    rank = None
    for _ in range(repeat):
        work = mat.data.copy()
        t0 = time.perf_counter()
        rank, _ = fn(work, ncols)
        best = min(best, time.perf_counter() - t0)
    return best, rank


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--sizes", default="256,512,1024,2048")
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--json", help="optional JSON output path")
    args = ap.parse_args()
    sizes = [int(s) for s in args.sizes.split(",")]
    rng = np.random.default_rng(0)
    results = []
    print(f"backends: {', '.join(BACKENDS)}")
    if "ext" not in BACKENDS:
        print("compiled kernel not built; build it with: python setup.py build_ext --inplace")
    print(f"{'case':>18} {'size':>6} " + " ".join(f"{name:>12}" for name in BACKENDS) + "   speedup")
    for size in sizes:
        for case, make in (("dense", random_dense), ("sparse k=3", random_sparse)):
            mat = make(rng, size, size)
            row = {"case": case, "size": size}
            ranks = set()
            for name, fn in BACKENDS.items():
                secs, rank = bench(fn, mat, size, args.repeat)
                row[name] = secs
                ranks.add(rank)
            assert len(ranks) == 1, "backends disagree on rank"
            row["rank"] = ranks.pop()
            speed = (row["python"] / row["ext"]) if "ext" in row else float("nan")
            print(
                f"{case:>18} {size:>6} "
                + " ".join(f"{row[name] * 1e3:>10.2f}ms" for name in BACKENDS)
                + f"   {speed:>6.1f}x"
            )
            results.append(row)
    if args.json:
        with open(args.json, "w") as fh:
            json.dump(results, fh, indent=2)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
