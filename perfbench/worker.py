#!/usr/bin/env python3
"""Benchmark worker: one fresh interpreter that sets up one workload, runs
its operations for a fixed time and checks every output.

run.py launches it with the package's ``src`` directory on PYTHONPATH.  It
prints one JSON line: the CLOCK_MONOTONIC time at which set-up finished,
then with --setup-only the reference loop's time right after it, and
otherwise the trial counts, failures and timings (plus, with --trace 1, the
per-layer metrics of README.md).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import math
import random
import resource
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

import xorsatlab
from xorsatlab import certify, experiments, gf2, instances, peel
from xorsatlab.experiments import ExperimentConfig, run_experiment
from xorsatlab.formulas import c_star, core_sizes, lambda_of

from speed import at_reference_speed, reference_seconds
from tracer import Tracer, layer_metrics, patched

K3GRID_TARGET = -0.002
CLAIMS = ("amed", "k3grid", "alarge", "monotone")
# Criterion 08 allows 0.01 on mean core fractions at n = 1e5; fluctuations scale as n^-1/2.
CORE_TOL_AT_1E5 = 0.01


def master_seed(seed: int, index: int) -> int:
    """Master seed of the index-th op of a run: distinct per (seed, index)."""
    return seed * 100_000 + index


@dataclass
class OpResult:
    seconds: float
    scaled: float  # seconds at the reference speed
    trials: int
    failed: int
    digest: str | None
    rows: list = field(default_factory=list)


class Capture:
    """Keeps what each trial's peel and solve returned, for the output checks.

    Installed for the whole run, traced or not: one list append per call.
    """

    def __init__(self) -> None:
        self.peeled: list = []
        self.solved: list = []

    def patches(self):
        def keep_peel(fn):
            def two_core(inst, *args, **kwargs):
                out = fn(inst, *args, **kwargs)
                self.peeled.append((inst, out[0], out[1]))
                return out

            return two_core

        def keep_solve(fn):
            def solve(mat, b):
                res = fn(mat, b)
                self.solved.append((mat, b, res))
                return res

            return solve

        return [(experiments, "two_core", keep_peel), (experiments, "solve", keep_solve)]

    def take(self):
        out = (self.peeled, self.solved)
        self.peeled, self.solved = [], []
        return out


def satisfies(rows, rhs, x) -> bool:
    if not rows:
        return True
    xs = np.asarray(x, dtype=np.uint8)
    return np.array_equal(np.bitwise_xor.reduce(xs[np.asarray(rows)], axis=1), np.asarray(rhs, dtype=np.uint8))


def is_two_core(core) -> bool:
    if core.n == 0:
        return core.m == 0
    return int(np.bincount(np.asarray(core.rows).ravel(), minlength=core.n).min()) >= 2


@dataclass
class Campaign:
    """A sat_sweep or core_check campaign at one shape; an op is one engine
    call with one trial per point, so it yields len(points) trials."""

    kind: str
    k: int
    n: int
    model: str = "unconstrained"
    c_grid: tuple | None = None
    m_list: tuple | None = None
    sat_range: tuple = ()  # allowed sat fraction per point: the acceptance gates
    fault: bool = False
    unit = "trial"

    def config(self, master: int) -> ExperimentConfig:
        return ExperimentConfig(
            self.kind, self.k, self.n, 1, master, self.model,
            c_grid=list(self.c_grid) if self.c_grid else None,
            m_list=list(self.m_list) if self.m_list else None,
            workers=1,
        )

    def setup(self) -> None:
        cfg = self.config(0)
        cfg.validate()
        self.points = cfg.points()
        self.trials_per_op = len(self.points)
        if self.sat_range and self.model == "unconstrained" and not (
            self.points[0]["c"] < c_star(self.k) < self.points[-1]["c"]
        ):
            raise ValueError(f"c*_{self.k} = {c_star(self.k)} is not inside the swept densities")
        self.predicted = [core_sizes(self.k, p["c"]) for p in self.points]
        self.core_tol = CORE_TOL_AT_1E5 * math.sqrt(1e5 / self.n)
        if self.model == "constrained":
            for p in self.points:  # fills the truncated-Poisson table each sampler uses
                if self.k * p["m"] > 2 * self.n:
                    instances.sample_truncated_poisson(lambda_of(self.k * p["m"] / self.n), rng=np.random.default_rng(0))
        self.capture = Capture()

    def op(self, master: int):
        _, rows, summary = run_experiment(self.config(master))
        return rows, summary["csv_sha256"]

    def check(self, out) -> int:
        """Failed trials of one op: solutions, CSV rows and peel traces."""
        rows, _ = out
        peeled, solved = self.capture.take()
        want_peel = self.model == "unconstrained"
        want_solve = self.kind == "sat_sweep"
        if (want_peel and len(peeled) != len(rows)) or (want_solve and len(solved) != len(rows)):
            print("perfbench: captured peel/solve calls do not match the trial rows", file=sys.stderr)
            return len(rows)
        failed = 0
        for t, row in enumerate(rows):
            try:
                ok = self._check_trial(row, peeled[t] if want_peel else None, solved[t] if want_solve else None)
            except ValueError:
                traceback.print_exc()
                ok = False
            failed += not ok
        return failed

    def _check_trial(self, row, peeled, solved) -> bool:
        ok = True
        if self.fault and solved is None:
            self.fault = False
            row = {**row, "core_vars": row["core_vars"] + 1}
        if peeled is not None:
            inst, core, trace = peeled
            ok &= (core.n, core.m) == (row["core_vars"], row["core_eqs"])
            ok &= len(trace.steps) == inst.n - core.n and is_two_core(core)
        if solved is not None:
            mat, b, res = solved
            ok &= (int(res.consistent), res.rank) == (row["sat"], row["rank"])
            if res.consistent:
                x = res.one_solution.copy()
                if self.fault and peeled is None:  # every variable of a constrained instance is in an equation
                    self.fault = False
                    x[0] ^= 1
                ok &= np.array_equal(gf2.matvec(mat, x), np.asarray(b, dtype=np.uint8))
                if peeled is not None:
                    full = peel.extend_solution(x, trace, inst)
                    if self.fault:
                        self.fault = False
                        full[inst.rows[0][0]] ^= 1
                    ok &= satisfies(inst.rows, inst.rhs, full)
        if not ok:
            print(f"perfbench: trial check failed: {row}", file=sys.stderr)
        return bool(ok)

    def gate_failures(self, results: list[OpResult]) -> int:
        """Trials at points whose run means miss a gate: the sat fraction
        against the acceptance gates, and the mean core fractions against
        formulas.core_sizes (unconstrained model)."""
        failed = 0
        for idx in range(len(self.points)):
            rows = [row for r in results for row in r.rows if row["point"] == idx]
            if not rows:
                continue
            misses = []
            if self.sat_range:
                lo, hi = self.sat_range[idx]
                frac = float(np.mean([row["sat"] for row in rows]))
                if not lo <= frac <= hi:
                    misses.append(f"sat fraction {frac:.3f} outside [{lo}, {hi}]")
            if self.model == "unconstrained":
                for col, pred in zip(("core_vars", "core_eqs"), self.predicted[idx]):
                    frac = float(np.mean([row[col] for row in rows])) / self.n
                    if abs(frac - pred) > self.core_tol:
                        misses.append(f"mean {col}/n {frac:.4f} vs predicted {pred:.4f}")
            if misses:
                print(f"perfbench: point {idx}: {'; '.join(misses)}", file=sys.stderr)
                failed += len(rows)
        return failed


@dataclass
class CertifyRound:
    """All four certificate claims built and replayed; an op is one round.

    The claims are the paper's fixed inequalities, so the seed only sets the
    order in which they run within each round.
    """

    fault: bool = False
    unit = "round"
    trials_per_op = 1

    def setup(self) -> None:
        self.capture = Capture()

    def op(self, master: int):
        certs, replayed = {}, {}
        for claim in random.Random(master).sample(CLAIMS, len(CLAIMS)):
            cert = certify.certify_claim(
                claim,
                k=4 if claim == "amed" else None,
                target=K3GRID_TARGET if claim == "k3grid" else None,
            )
            if self.fault:
                self.fault = False
                cert.cells[0].target = -math.inf
            replayed[claim] = certify.replay_certificate(cert)
            certs[claim] = cert
        digest = hashlib.sha256("".join(certs[c].dumps() for c in CLAIMS).encode()).hexdigest()
        return (certs, replayed), digest

    def check(self, out) -> int:
        certs, replayed = out[0]
        bad = [c for c in CLAIMS if not (certs[c].verified and replayed[c])]
        if bad:
            print(f"perfbench: certificates not verified or not replayed: {bad}", file=sys.stderr)
        return int(bool(bad))

    def gate_failures(self, results) -> int:
        return 0


WORKLOADS = {
    "sat_k3_n3000": dict(kind="sat_sweep", k=3, n=3000, c_grid=(0.87, 0.97), sat_range=((0.9, 1.0), (0.0, 0.1))),
    "sat_constrained_k4_n1000": dict(
        kind="sat_sweep", k=4, n=1000, model="constrained", m_list=(900, 1100), sat_range=((0.98, 1.0), (0.0, 0.02))
    ),
    "core_k3_n1e5": dict(kind="core_check", k=3, n=100_000, c_grid=(0.95,)),
    "certify_all": None,
}

# Small shapes for the smoke tests: same layers, same checks, far from the thresholds.
TINY = {
    "sat_k3_n3000": dict(kind="sat_sweep", k=3, n=300, c_grid=(0.7, 1.2), sat_range=((0.9, 1.0), (0.0, 0.1))),
    "sat_constrained_k4_n1000": dict(
        kind="sat_sweep", k=4, n=100, model="constrained", m_list=(60, 120), sat_range=((0.98, 1.0), (0.0, 0.02))
    ),
    "core_k3_n1e5": dict(kind="core_check", k=3, n=3000, c_grid=(0.95,)),
    "certify_all": None,
}


def make_workload(name: str, shape: str, fault: bool):
    spec = (TINY if shape == "tiny" else WORKLOADS)[name]
    return CertifyRound(fault=fault) if spec is None else Campaign(**spec, fault=fault)


def trace_patches(tr: Tracer):
    """The names the engine calls, each wrapped to record a span or a count."""

    def sampled_constrained(args, out):
        tr.counts["constrained_instances"] += 1
        return {}

    return [
        (experiments, "_run_one", lambda f: tr.wrap("trial", f)),
        (experiments, "gen_unconstrained", lambda f: tr.wrap("sample", f)),
        (experiments, "gen_constrained", lambda f: tr.wrap("sample", f, sampled_constrained)),
        # the per-attempt chip allocation inside gen_constrained: attempts and degree retries
        (instances, "_gen_C", lambda f: tr.count(f, lambda a: {"chip_attempts": 1, "degree_retries": a.retries})),
        (experiments, "two_core", lambda f: tr.wrap(
            "peel", f, lambda args, out: {"steps": len(out[1].steps), "core_vars": out[0].n, "n": args[0].n})),
        (gf2.BitMatrix, "from_sparse_rows", lambda cm: classmethod(tr.wrap(
            "pack", cm.__func__, lambda args, out: {"bytes": out.data.nbytes}))),
        (experiments, "solve", lambda f: tr.wrap("solve", f)),
        (gf2, "eliminate_words", lambda f: tr.wrap(
            "eliminate", f, lambda args, out: {"word_xors": args[0].shape[0] * args[0].shape[1] * out[0]})),
        (certify, "certify_claim", lambda f: tr.wrap("certify.build", f)),
        (certify, "replay_certificate", lambda f: tr.wrap("certify.replay", f)),
        (certify, "hk_cell_bound", lambda f: tr.wrap("cell_eval", f, lambda args, out: {"bound": out})),
    ]


def run_phase(workload, seed: int, seconds: float, tracer: Tracer | None = None) -> list[OpResult]:
    """Closed loop: ops back to back until `seconds` have passed (at least one).

    Only the engine call is timed; the reference loop runs on either side of
    it, and the checks after it.
    """
    results = []
    deadline = time.perf_counter() + seconds
    before = reference_seconds()
    while not results or time.perf_counter() < deadline:
        span = tracer.span("op") if tracer else contextlib.nullcontext()
        out = None
        with span:
            t0 = time.perf_counter()
            try:
                out = workload.op(master_seed(seed, len(results)))
            except Exception:
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
        after = reference_seconds()
        scaled = at_reference_speed(elapsed, before, after)
        before = after
        if out is None:
            workload.capture.take()
            results.append(OpResult(elapsed, scaled, workload.trials_per_op, workload.trials_per_op, None))
            continue
        failed = workload.check(out)
        rows = out[0] if isinstance(workload, Campaign) else []
        results.append(OpResult(elapsed, scaled, workload.trials_per_op, failed, out[1], rows))
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--shape", choices=("full", "tiny"), default="full")
    ap.add_argument("--inject-fault", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    workload = make_workload(args.workload, args.shape, args.inject_fault)
    workload.setup()
    ready = time.monotonic()
    if args.setup_only:
        print(json.dumps({"ready": ready, "reference_s": reference_seconds()}))
        return 0

    report = {
        "ready": ready,
        "env": {
            "kernel_backend": gf2.KERNEL_BACKEND,
            "xorsatlab": xorsatlab.__version__,
            "python": sys.version.split()[0],
            "numpy": np.__version__,
        },
    }
    with patched(workload.capture.patches()):
        if not args.trace:
            results = run_phase(workload, args.seed, args.seconds)
            report["ops_per_s"] = sum(r.trials for r in results) / sum(r.scaled for r in results)
            report["wall_ops_per_s"] = sum(r.trials for r in results) / sum(r.seconds for r in results)
            report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            failed = sum(r.failed for r in results) + workload.gate_failures(results)
        else:
            # Same inputs twice: untraced, then traced.  Equal digests show the
            # wrappers change no result; the time ratio is the tracing overhead.
            plain = run_phase(workload, args.seed, args.seconds / 2)
            tracer = Tracer()
            with patched(trace_patches(tracer)):
                traced = run_phase(workload, args.seed, args.seconds / 2, tracer)
            common = min(len(plain), len(traced))
            mismatched = [r for p, r in zip(plain, traced) if p.digest != r.digest]
            if mismatched:
                print(f"perfbench: {len(mismatched)} ops differ between untraced and traced runs", file=sys.stderr)
            results = plain + traced
            failed = (sum(r.failed for r in results) + workload.gate_failures(results)
                      + sum(r.trials for r in mismatched))
            overhead = sum(r.scaled for r in traced[:common]) / sum(r.scaled for r in plain[:common]) - 1.0
            trials = sum(r.trials for r in traced)
            report["layer"] = layer_metrics(
                tracer,
                trials=trials if workload.unit == "trial" else 0,
                rounds=trials if workload.unit == "round" else 0,
                overhead_frac=overhead,
                cell_target=K3GRID_TARGET,
            )
            report["spans"] = dict(sorted(Counter(s.name for s in tracer.spans).items()))
    report["attempted"] = sum(r.trials for r in results)
    report["failed"] = min(failed, report["attempted"])
    report["unit"] = workload.unit
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
