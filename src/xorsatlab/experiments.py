"""Monte Carlo experiment campaigns.

Five experiment kinds, all driven by one ExperimentConfig:

* ``sat_sweep``       - per density point: generate, peel (unconstrained
                        model), solve on GF(2), record satisfiability.
* ``critical_census`` - constrained model: count nonempty critical row
                        sets per instance; for tiny systems additionally
                        verify the exact rhs-average identity
                        E[N^2]/E[N]^2 = X + 1 by full b-enumeration.
* ``core_check``      - unconstrained model: 2-core order/size against the
                        predicted fractions.
* ``collision_check`` - chip model: collision moments against gamma,
                        gamma^2 and the e^{-gamma} acceptance rate.
* ``window_check``    - constrained model at m = n +- w for a list of
                        widths w.

Reproducibility contract: every trial draws from the Philox stream
(master, mix(point_index, trial_index)), so output is byte-identical for a
fixed config and master seed no matter how many workers run the campaign
(results are merged in task order, never completion order).

CSV files are per-trial, one fixed header per kind, every row carrying the
trial's stream id for single-trial replay; floats are written with repr()
round-trip precision.  Wall-clock times live only in the JSON summary
(config echo, aggregates, content hash of the CSV) so the CSV stays
deterministic.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from fractions import Fraction

import numpy as np

from xorsatlab import __version__
from xorsatlab.formulas import core_sizes, gamma, lambda_of
from xorsatlab.gf2 import KERNEL_BACKEND, BitMatrix, solve
from xorsatlab.instances import collision_count, gen_C_model, gen_constrained, gen_unconstrained
from xorsatlab.peel import two_core
from xorsatlab.rng import Seed, mix_streams

_KINDS = ("sat_sweep", "critical_census", "core_check", "collision_check", "window_check")
_COLLISION_CHUNK = 250

WORKERS_ENV = "XORSAT_LAB_WORKERS"


def default_workers() -> int:
    try:
        return max(1, int(os.environ.get(WORKERS_ENV, "1")))
    except ValueError:
        return 1


@dataclass
class ExperimentConfig:
    kind: str
    k: int
    n: int
    trials: int
    master_seed: int
    model: str = "unconstrained"
    c_grid: list[float] | None = None
    m_list: list[int] | None = None
    w_list: list[int] | None = None
    out: str | None = None
    workers: int = 1
    tiny_identity_max: int = 10  # census: full b-enumeration when m,n both <= this

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.c_grid is not None and any(b <= a for a, b in zip(self.c_grid, self.c_grid[1:])):
            raise ValueError("c_grid must be strictly increasing")
        if self.kind == "window_check" and not self.w_list:
            raise ValueError("window_check needs w_list")
        if self.kind != "window_check" and not (self.c_grid or self.m_list):
            raise ValueError("need c_grid or m_list")

    def points(self) -> list[dict]:
        """Resolved (c, m) points; window_check yields m = n -+ w pairs."""
        if self.kind == "window_check":
            pts = []
            for w in self.w_list:
                pts.append({"w": w, "side": "-", "m": self.n - w, "c": (self.n - w) / self.n})
                pts.append({"w": w, "side": "+", "m": self.n + w, "c": (self.n + w) / self.n})
            return pts
        if self.m_list is not None:
            return [{"m": m, "c": m / self.n} for m in self.m_list]
        return [{"m": round(c * self.n), "c": c} for c in self.c_grid]

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        cfg = cls(**{k: v for k, v in d.items() if k in cls.__dataclass_fields__})
        cfg.validate()
        return cfg


@dataclass
class SweepRow:
    """Aggregate of one sweep point (wall_time goes to the JSON summary only)."""

    c: float
    n: int
    m: int
    trials: int
    sat_count: int
    mean_nullity: float
    mean_core_vars: float
    mean_core_eqs: float
    wall_time: float = 0.0


# ---------------------------------------------------------------------------
# Per-trial work (module level so the process pool can pickle tasks)


def _trial_seed(master: int, point_idx: int, trial_idx: int) -> Seed:
    return Seed(master, mix_streams(point_idx, trial_idx))


def _solve_instance(rows, rhs, nvars):
    mat = BitMatrix.from_sparse_rows(nvars, rows)
    return solve(mat, rhs)


def _task_sat(params: dict, point_idx: int, trial_idx: int) -> dict:
    seed = _trial_seed(params["master"], point_idx, trial_idx)
    k, n, m = params["k"], params["n"], params["m"]
    if params["model"] == "unconstrained":
        inst = gen_unconstrained(k, m, n, seed)
        core, _, stats = two_core(inst)
        res = _solve_instance(core.rows, core.rhs, core.n)
        core_vars, core_eqs = stats.core_vars, stats.core_eqs
    else:
        inst = gen_constrained(k, m, n, seed)
        res = _solve_instance(inst.rows, inst.rhs, inst.n)
        core_vars, core_eqs = n, m
    return {
        "point": point_idx,
        "c": params["c"],
        "n": n,
        "m": m,
        "trial": trial_idx,
        "stream": seed.stream,
        "sat": int(res.consistent),
        "rank": res.rank,
        "nullity": core_eqs - res.rank,
        "core_vars": core_vars,
        "core_eqs": core_eqs,
    }


def _task_census(params: dict, point_idx: int, trial_idx: int) -> dict:
    seed = _trial_seed(params["master"], point_idx, trial_idx)
    k, n, m = params["k"], params["n"], params["m"]
    inst = gen_constrained(k, m, n, seed)
    mat = BitMatrix.from_sparse_rows(n, inst.rows)
    res = solve(mat, inst.rhs)
    nullity = m - res.rank
    critical = (1 << nullity) - 1
    identity_ok = ""
    if m <= params["tiny_identity_max"] and n <= params["tiny_identity_max"]:
        identity_ok = int(_rhs_average_identity(mat, n, m, critical))
    return {
        "point": point_idx,
        "c": params["c"],
        "n": n,
        "m": m,
        "trial": trial_idx,
        "stream": seed.stream,
        "sat": int(res.consistent),
        "nullity": nullity,
        "critical_sets": str(critical),
        "identity_ok": identity_ok,
    }


def _rhs_average_identity(mat: BitMatrix, n: int, m: int, critical: int) -> bool:
    """Exact check over all 2^m rhs vectors: sum_b N(b) = 2^n and
    (avg N^2)/(avg N)^2 = X + 1, in rational arithmetic."""
    total = Fraction(0)
    total_sq = Fraction(0)
    for bits in range(1 << m):
        b = [(bits >> i) & 1 for i in range(m)]
        res = solve(mat, b)
        count = (1 << res.solution_count_log2) if res.consistent else 0
        total += count
        total_sq += count * count
    if total != Fraction(2) ** n:
        return False
    mean = total / (1 << m)
    mean_sq = total_sq / (1 << m)
    return mean_sq / (mean * mean) == critical + 1


def _task_core(params: dict, point_idx: int, trial_idx: int) -> dict:
    seed = _trial_seed(params["master"], point_idx, trial_idx)
    k, n, m = params["k"], params["n"], params["m"]
    inst = gen_unconstrained(k, m, n, seed)
    _, _, stats = two_core(inst)
    return {
        "point": point_idx,
        "c": params["c"],
        "n": n,
        "m": m,
        "trial": trial_idx,
        "stream": seed.stream,
        "core_vars": stats.core_vars,
        "core_eqs": stats.core_eqs,
        "ratio": "" if stats.ratio is None else repr(stats.ratio),
    }


def _task_collision_chunk(params: dict, chunk_idx: int) -> list[dict]:
    k, n, m = params["k"], params["n"], params["m"]
    lo = chunk_idx * _COLLISION_CHUNK
    hi = min(lo + _COLLISION_CHUNK, params["trials"])
    rows = []
    for sample_idx in range(lo, hi):
        seed = _trial_seed(params["master"], 0, sample_idx)
        alloc = gen_C_model(k, m, n, seed)
        rows.append(
            {
                "sample": sample_idx,
                "stream": seed.stream,
                "n": n,
                "m": m,
                "collisions": collision_count(alloc),
                "degree_retries": alloc.retries,
            }
        )
    return rows


def _task_window(params: dict, point_idx: int, trial_idx: int) -> dict:
    row = _task_sat(params, point_idx, trial_idx)
    row["w"] = params["w"]
    row["side"] = params["side"]
    return row


_TASK_FNS = {
    "sat_sweep": _task_sat,
    "critical_census": _task_census,
    "core_check": _task_core,
    "window_check": _task_window,
}


def _run_one(task):
    kind, params, point_idx, trial_idx = task
    if kind == "collision_check":
        return _task_collision_chunk(params, point_idx)
    return _TASK_FNS[kind](params, point_idx, trial_idx)


def _map_tasks(tasks: list, workers: int) -> list:
    if workers <= 1:
        return [_run_one(t) for t in tasks]
    chunksize = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # pool.map preserves task order: merge order never depends on timing
        return list(pool.map(_run_one, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# Campaign drivers


_HEADERS = {
    "sat_sweep": ["point", "c", "n", "m", "trial", "stream", "sat", "rank", "nullity", "core_vars", "core_eqs"],
    "critical_census": ["point", "c", "n", "m", "trial", "stream", "sat", "nullity", "critical_sets", "identity_ok"],
    "core_check": ["point", "c", "n", "m", "trial", "stream", "core_vars", "core_eqs", "ratio"],
    "collision_check": ["sample", "stream", "n", "m", "collisions", "degree_retries"],
    "window_check": ["point", "w", "side", "c", "n", "m", "trial", "stream", "sat", "rank", "nullity", "core_vars", "core_eqs"],
}


def _csv_text(kind: str, rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    header = _HEADERS[kind]
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_field(row.get(col, "")) for col in header])
    return buf.getvalue()


def _csv_field(v):
    if isinstance(v, float):
        return repr(v)
    return v


def _persist(cfg: ExperimentConfig, rows: list[dict], aggregates, wall: float) -> dict:
    text = _csv_text(cfg.kind, rows)
    digest = hashlib.sha256(text.encode()).hexdigest()
    summary = {
        "config": cfg.to_json_dict(),
        "aggregates": aggregates,
        "csv_sha256": digest,
        "wall_time_s": wall,
        "version": __version__,
        "kernel_backend": KERNEL_BACKEND,
    }
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        with open(cfg.out + ".summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
    return summary


def _trial_tasks(cfg: ExperimentConfig, extra_params: dict | None = None):
    tasks = []
    for point_idx, point in enumerate(cfg.points()):
        params = {
            "master": cfg.master_seed,
            "k": cfg.k,
            "n": cfg.n,
            "model": cfg.model,
            "tiny_identity_max": cfg.tiny_identity_max,
            **point,
            **(extra_params or {}),
        }
        for trial_idx in range(cfg.trials):
            tasks.append((cfg.kind, params, point_idx, trial_idx))
    return tasks


def run_sat_sweep(cfg: ExperimentConfig) -> tuple[list[SweepRow], list[dict], dict]:
    """Returns (aggregate SweepRows, per-trial rows, summary)."""
    cfg.validate()
    if cfg.kind != "sat_sweep":
        raise ValueError("config kind must be sat_sweep")
    t0 = time.time()
    rows = _map_tasks(_trial_tasks(cfg), cfg.workers)
    per_point: dict[int, list[dict]] = {}
    for row in rows:
        per_point.setdefault(row["point"], []).append(row)
    aggregates = []
    for point_idx, point in enumerate(cfg.points()):
        sub = per_point.get(point_idx, [])
        aggregates.append(
            SweepRow(
                c=point["c"],
                n=cfg.n,
                m=point["m"],
                trials=len(sub),
                sat_count=sum(r["sat"] for r in sub),
                mean_nullity=float(np.mean([r["nullity"] for r in sub])),
                mean_core_vars=float(np.mean([r["core_vars"] for r in sub])),
                mean_core_eqs=float(np.mean([r["core_eqs"] for r in sub])),
            )
        )
    wall = time.time() - t0
    for agg in aggregates:
        agg.wall_time = wall / max(len(aggregates), 1)
    summary = _persist(cfg, rows, [asdict(a) for a in aggregates], wall)
    return aggregates, rows, summary


def run_critical_census(cfg: ExperimentConfig) -> tuple[list[dict], list[dict], dict]:
    cfg.validate()
    if cfg.kind != "critical_census":
        raise ValueError("config kind must be critical_census")
    if cfg.n > 4000:
        raise ValueError("census is limited to n <= 4000")
    t0 = time.time()
    cfg = _as_model(cfg, "constrained")
    rows = _map_tasks(_trial_tasks(cfg), cfg.workers)
    aggregates = []
    for point_idx, point in enumerate(cfg.points()):
        sub = [r for r in rows if r["point"] == point_idx]
        checked = [r for r in sub if r["identity_ok"] != ""]
        aggregates.append(
            {
                "c": point["c"],
                "m": point["m"],
                "n": cfg.n,
                "trials": len(sub),
                "mean_critical_sets": float(np.mean([int(r["critical_sets"]) for r in sub])),
                "frac_rank_deficient": float(np.mean([r["nullity"] > 0 for r in sub])),
                "identity_checked": len(checked),
                "identity_ok": sum(r["identity_ok"] for r in checked),
            }
        )
    summary = _persist(cfg, rows, aggregates, time.time() - t0)
    return aggregates, rows, summary


def run_core_check(cfg: ExperimentConfig) -> tuple[list[dict], list[dict], dict]:
    cfg.validate()
    if cfg.kind != "core_check":
        raise ValueError("config kind must be core_check")
    t0 = time.time()
    rows = _map_tasks(_trial_tasks(cfg), cfg.workers)
    aggregates = []
    for point_idx, point in enumerate(cfg.points()):
        sub = [r for r in rows if r["point"] == point_idx]
        pred_v, pred_e = core_sizes(cfg.k, point["c"])
        nonempty = [r for r in sub if r["core_vars"] > 0]
        aggregates.append(
            {
                "c": point["c"],
                "m": point["m"],
                "n": cfg.n,
                "trials": len(sub),
                "mean_core_vars_frac": float(np.mean([r["core_vars"] / cfg.n for r in sub])),
                "mean_core_eqs_frac": float(np.mean([r["core_eqs"] / cfg.n for r in sub])),
                "mean_ratio": float(np.mean([r["core_eqs"] / r["core_vars"] for r in nonempty])) if nonempty else None,
                "empty_cores": len(sub) - len(nonempty),
                "predicted_core_vars_frac": pred_v,
                "predicted_core_eqs_frac": pred_e,
            }
        )
    summary = _persist(cfg, rows, aggregates, time.time() - t0)
    return aggregates, rows, summary


def run_collision_check(cfg: ExperimentConfig) -> tuple[dict, list[dict], dict]:
    """cfg.trials = number of chip-model samples; returns aggregate moments."""
    cfg.validate()
    if cfg.kind != "collision_check":
        raise ValueError("config kind must be collision_check")
    t0 = time.time()
    point = cfg.points()[0]
    params = {"master": cfg.master_seed, "k": cfg.k, "n": cfg.n, "trials": cfg.trials, **point}
    n_chunks = (cfg.trials + _COLLISION_CHUNK - 1) // _COLLISION_CHUNK
    tasks = [("collision_check", params, i, 0) for i in range(n_chunks)]
    chunks = _map_tasks(tasks, cfg.workers)
    rows = [row for chunk in chunks for row in chunk]
    coll = np.array([r["collisions"] for r in rows], dtype=np.float64)
    lam = lambda_of(cfg.k * point["m"] / cfg.n)
    g = gamma(cfg.k, lam)
    aggregate = {
        "k": cfg.k,
        "n": cfg.n,
        "m": point["m"],
        "samples": len(rows),
        "mean_collisions": float(coll.mean()),
        "second_factorial_moment": float((coll * (coll - 1)).mean()),
        "p_zero": float((coll == 0).mean()),
        "mean_degree_retries": float(np.mean([r["degree_retries"] for r in rows])),
        "gamma": g,
        "gamma_sq": g * g,
        "exp_neg_gamma": math.exp(-g),
        "lambda": lam,
    }
    summary = _persist(cfg, rows, aggregate, time.time() - t0)
    return aggregate, rows, summary


def run_window_check(cfg: ExperimentConfig) -> tuple[list[dict], list[dict], dict]:
    cfg.validate()
    if cfg.kind != "window_check":
        raise ValueError("config kind must be window_check")
    t0 = time.time()
    cfg = _as_model(cfg, "constrained")
    rows = _map_tasks(_trial_tasks(cfg), cfg.workers)
    aggregates = []
    for point_idx, point in enumerate(cfg.points()):
        sub = [r for r in rows if r["point"] == point_idx]
        sat_frac = float(np.mean([r["sat"] for r in sub]))
        agg = {
            "w": point["w"],
            "side": point["side"],
            "m": point["m"],
            "n": cfg.n,
            "trials": len(sub),
            "sat_frac": sat_frac,
        }
        if point["side"] == "+":
            agg["unsat_envelope"] = 2.0 ** (-point["w"])
        aggregates.append(agg)
    summary = _persist(cfg, rows, aggregates, time.time() - t0)
    return aggregates, rows, summary


def _as_model(cfg: ExperimentConfig, model: str) -> ExperimentConfig:
    if cfg.model != model:
        cfg = ExperimentConfig(**{**cfg.to_json_dict(), "model": model})
    return cfg


_RUNNERS = {
    "sat_sweep": run_sat_sweep,
    "critical_census": run_critical_census,
    "core_check": run_core_check,
    "collision_check": run_collision_check,
    "window_check": run_window_check,
}


def run_experiment(cfg: ExperimentConfig):
    cfg.validate()
    return _RUNNERS[cfg.kind](cfg)


# ---------------------------------------------------------------------------
# Plots


def emit_plot(csv_path: str | None, out_svg: str, mode: str = "sweep", **kw) -> str:
    """Write a standalone SVG chart and return its text.

    mode="sweep": read a per-trial CSV; x = kw['x'] (default "c"), y = mean
    of kw['y'] (default "sat") grouped per x, one series per value of
    kw['series'] (default "n").  Malformed or empty CSV raises before any
    file is written.

    mode="hk": no CSV; plot the rate function H_k(alpha, zeta(alpha); c)
    against alpha for k = kw['k'] and each c in kw['c_values'] (the kink
    where the zeta recipe switches forms is visible at alpha_k).
    """
    from xorsatlab.svg import line_chart

    if mode == "sweep":
        if csv_path is None:
            raise ValueError("sweep mode needs a CSV path")
        xcol, ycol, scol = kw.get("x", "c"), kw.get("y", "sat"), kw.get("series", "n")
        with open(csv_path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        if not rows:
            raise ValueError(f"no data rows in {csv_path}")
        if xcol not in rows[0] or ycol not in rows[0]:
            raise ValueError(f"CSV lacks columns {xcol!r}/{ycol!r}")
        grouped: dict[str, dict[float, list[float]]] = {}
        for row in rows:
            series_key = row.get(scol, "")
            grouped.setdefault(series_key, {}).setdefault(float(row[xcol]), []).append(float(row[ycol]))
        series = []
        for label in sorted(grouped):
            xs = sorted(grouped[label])
            ys = [sum(grouped[label][x]) / len(grouped[label][x]) for x in xs]
            series.append((f"{scol}={label}", xs, ys))
        text = line_chart(series, kw.get("title", f"mean {ycol} vs {xcol}"), xcol, f"mean {ycol}")
    elif mode == "hk":
        from xorsatlab.formulas import H_k, zeta_choice

        k = kw["k"]
        c_values = kw["c_values"]
        npts = kw.get("n_points", 399)
        alphas = [i / (npts + 1) for i in range(1, npts + 1)]
        series = []
        for c in c_values:
            ys = [H_k(a, zeta_choice(k, c, a), c, k) for a in alphas]
            series.append((f"c={c:g}", alphas, ys))
        text = line_chart(series, f"rate function, k={k}", "alpha", "H_k")
    else:
        raise ValueError(f"unknown plot mode {mode!r}")
    with open(out_svg, "w") as fh:
        fh.write(text)
    return text


__all__ = [
    "ExperimentConfig",
    "SweepRow",
    "WORKERS_ENV",
    "default_workers",
    "emit_plot",
    "run_collision_check",
    "run_core_check",
    "run_critical_census",
    "run_experiment",
    "run_sat_sweep",
    "run_window_check",
]
