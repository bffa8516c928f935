#!/usr/bin/env python3
"""xorsatlab benchmark: campaign throughput end to end, per-layer metrics when traced.

Run from the repository root, for example

    python3 perfbench/run.py --workload sat_k3_n3000 --seed 1 --seconds 25 --trace 0

--trace 0 prints the end-to-end metrics (ops_per_s, setup_s, peak_rss_mb);
--trace 1 prints the per-layer metrics from a traced run.  Every output is
checked.  The last stdout line is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 0: all checks passed; 1: some
output check failed; 2: the benchmark could not run (for example, no
package source next to it).  README.md explains the workloads and metrics.

The benchmark builds nothing and never sets XORSATLAB_FORCE_FALLBACK: it
measures whichever GF(2) kernel a plain checkout imports, and records it.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from speed import at_reference_speed
from tracer import PER_LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("sat_k3_n3000", "sat_constrained_k4_n1000", "core_k3_n1e5", "certify_all")
END_TO_END_UNITS = {"ops_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_RUNS = 5  # set-up-only fresh interpreters per untraced run; setup_s is their median
BUDGET_S = 170.0  # the whole run, all child processes included


class BenchError(Exception):
    pass


def launch(cmd: list[str], env: dict, timeout: float) -> dict:
    """Run one worker and return its JSON report, plus its launch time."""
    if timeout <= 0:
        raise BenchError("time budget exhausted")
    launched = time.monotonic()
    proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout, check=False)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no report")
    return {**json.loads(lines[-1]), "launched": launched}


def setup_seconds(report: dict) -> float:
    """Launch to ready (both CLOCK_MONOTONIC), at the reference speed the
    worker measured right after its set-up, on the CPU it ran on."""
    raw = report["ready"] - report["launched"]
    return at_reference_speed(raw, report["reference_s"], report["reference_s"])


def git_rev() -> str | None:
    try:
        proc = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=10, check=False
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def source_digest() -> str:
    """sha256 over the package source, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for path in sorted((SRC / "xorsatlab").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True, help="makes every input of the run")
    ap.add_argument("--seconds", type=float, required=True, help="measuring time of the run")
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--shape", choices=("full", "tiny"), default="full", help="tiny: small shapes for smoke tests")
    ap.add_argument("--inject-fault", action="store_true", help="corrupt one output to prove the checks fire")
    args = ap.parse_args(argv)

    start = time.monotonic()
    if not (SRC / "xorsatlab" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    pythonpath = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
              "--seed", str(args.seed), "--shape", args.shape]
    measure = ["--seconds", str(args.seconds), "--trace", str(args.trace)]
    measure += ["--inject-fault"] if args.inject_fault else []

    def remaining() -> float:
        return BUDGET_S - (time.monotonic() - start)

    try:
        setups = [] if args.trace else [
            setup_seconds(launch(worker + ["--setup-only"], env, remaining())) for _ in range(SETUP_RUNS)
        ]
        report = launch(worker + measure, env, remaining())
    except (BenchError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2

    if args.trace:
        metrics = {name: {"value": report["layer"][name], "unit": unit} for name, unit in PER_LAYER_UNITS.items()}
    else:
        values = {"ops_per_s": report["ops_per_s"], "setup_s": statistics.median(setups),
                  "peak_rss_mb": report["peak_rss_mb"]}
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END_UNITS.items()}

    attempted, failed = report["attempted"], report["failed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "shape": args.shape,
        **report["env"],
        "git_rev": git_rev(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
    }
    print("# env " + json.dumps(record))
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']:<14.6g} {m['unit']}")
    if not args.trace:
        print(f"{'wall_ops_per_s':40s} {report['wall_ops_per_s']:<14.6g} 1/s  (unscaled wall clock)")
    print(f"{'failed_frac':40s} {failed / attempted:<14.6g} fraction  ({failed} of {attempted} {report['unit']}s)")
    if args.trace:
        print("# spans " + json.dumps(report["spans"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
