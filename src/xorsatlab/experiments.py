"""Monte Carlo experiment campaigns.

Five experiment kinds, all driven by one ExperimentConfig and run by one
engine, ``run_experiment``.  The ``_KINDS`` table gives each kind its
per-trial task, CSV header, per-point aggregate and, where the kind fixes
one, its model.  The header is the one schema of a trial row: ``_run_one``
fills its shared columns (point, density, trial, stream) and a task
returns only what it measured:

* ``sat_sweep``       - per density point: generate, peel (unconstrained
                        model), solve on GF(2), record satisfiability.
* ``critical_census`` - constrained model: count nonempty critical row
                        sets per instance; for tiny systems additionally
                        verify the exact rhs-average identity
                        E[N^2]/E[N]^2 = X + 1 over all 2^n assignments.
* ``core_check``      - unconstrained model: 2-core order/size against the
                        predicted fractions.
* ``collision_check`` - chip model at exactly one density: collision
                        moments against gamma, gamma^2 and the e^{-gamma}
                        acceptance rate; each trial is one sample.
* ``window_check``    - constrained model at m = n +- w for a list of
                        widths w.

A config gives exactly one non-empty point grid, and it is its kind's own:
``w_list`` for window_check, ``c_grid`` or ``m_list`` for the others.
``validate`` refuses any other choice before a trial runs.

``run_experiment(cfg)`` returns ``(aggregates, rows, summary)``: one
aggregate dict per point (collision_check: its one point's dict), the
per-trial row dicts in task order, and the summary dict.

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
from dataclasses import asdict, dataclass, replace

import numpy as np

from xorsatlab import __version__
from xorsatlab.errors import from_json
from xorsatlab.formulas import core_sizes, gamma, lambda_of
from xorsatlab.gf2 import KERNEL_BACKEND, BitMatrix, solve
from xorsatlab.instances import (
    _MODELS,
    MODEL_CONSTRAINED,
    MODEL_UNCONSTRAINED,
    Instance,
    collision_count,
    gen_C_model,
    gen_constrained,
    gen_unconstrained,
)
from xorsatlab.peel import two_core
from xorsatlab.rng import Seed, mix_streams

TINY_IDENTITY_MAX = 10  # census: check the identity over all 2^n assignments when m, n are both <= this
MODEL_RELAXED = "relaxed_C"  # collision_check's model label: the chip model, which makes no Instance


@dataclass
class ExperimentConfig:
    kind: str
    k: int
    n: int
    trials: int
    master_seed: int
    model: str | None = None  # None: the kind's forced model, else unconstrained
    c_grid: list[float] | None = None
    m_list: list[int] | None = None
    w_list: list[int] | None = None
    out: str | None = None
    workers: int = 1

    def validate(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        forced = _KINDS[self.kind][3]
        # a kind's forced model (collision_check's relaxed_C) is valid for that kind, so its echo runs again
        if forced is not None and self.model not in (None, forced):
            raise ValueError(f"{self.kind} runs the {forced} model, not {self.model!r}")
        if forced is None and self.model not in (None, *_MODELS):
            raise ValueError(f"unknown model {self.model!r}; expected {' or '.join(_MODELS)}")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if self.workers < 1:
            raise ValueError("workers must be >= 1")
        if self.c_grid is not None and not all(map(math.isfinite, self.c_grid)):
            raise ValueError("c_grid densities must be finite")
        if self.c_grid is not None and any(b <= a for a, b in zip(self.c_grid, self.c_grid[1:])):
            raise ValueError("c_grid must be strictly increasing")
        # a negative point size is refused here, before the campaign runs the trials of the points ahead of it
        for name, sizes, what in (("m_list", self.m_list, "entry"), ("c_grid", self.c_grid, "density")):
            bad = next((x for x in sizes or () if x < 0), None)
            if bad is not None:
                raise ValueError(f"{name} {what} {bad} is negative")
        if self.kind == "window_check":
            bad = next((w for w in self.w_list or () if abs(w) > self.n), None)
            if bad is not None:
                raise ValueError(f"w_list window {bad} exceeds n={self.n}: the point m = n - |w| would be negative")
        grids = ("w_list",) if self.kind == "window_check" else ("c_grid", "m_list")
        given = [name for name in ("c_grid", "m_list", "w_list") if getattr(self, name)]
        if len(given) != 1 or given[0] not in grids:
            raise ValueError(f"{self.kind} takes one grid, {' or '.join(grids)}; got {' and '.join(given) or 'none'}")
        if self.kind == "collision_check" and len(self.points()) != 1:
            raise ValueError("collision_check takes exactly one density (one c_grid or m_list entry)")
        if self.kind == "collision_check" and (self.k < 3 or self.k * self.points()[0]["m"] <= 2 * self.n):
            # gamma and the tilt of the collision law need both
            raise ValueError(f"collision_check needs k >= 3 and km > 2n, got k={self.k}, m={self.points()[0]['m']}, n={self.n}")
        if self.kind == "critical_census" and self.n > 4000:
            raise ValueError("census is limited to n <= 4000")

    def points(self) -> list[dict]:
        """Resolved (c, m) points; window_check yields m = n -+ w pairs."""
        if self.kind == "window_check":
            pts = []
            for w in self.w_list:
                pts.append({"w": w, "side": "-", "m": self.n - w, "c": (self.n - w) / self.n})
                pts.append({"w": w, "side": "+", "m": self.n + w, "c": (self.n + w) / self.n})
            return pts
        if self.m_list:
            return [{"m": m, "c": m / self.n} for m in self.m_list]
        return [{"m": round(c * self.n), "c": c} for c in self.c_grid]

    def to_json_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        """Config from parsed JSON; a missing, unknown or mistyped key or an invalid config raise ValueError."""
        cfg = from_json(cls, d, ValueError, "config")
        cfg.validate()
        return cfg


# ---------------------------------------------------------------------------
# Per-trial work: module level so the process pool can pickle tasks.  Tasks
# take (point params, trial seed), return only what they measured, and call
# two_core, solve and the generators through this module's globals.


def _task_sat(params: dict, seed: Seed) -> dict:
    k, n, m = params["k"], params["n"], params["m"]
    if params["model"] == MODEL_UNCONSTRAINED:
        system, _ = two_core(gen_unconstrained(k, m, n, seed))  # same satisfiability, smaller system
    else:
        system = gen_constrained(k, m, n, seed)
    res = solve(BitMatrix.from_sparse_rows(system.n, system.index), system.bits)
    return {
        "sat": int(res.consistent),
        "rank": res.rank,
        "nullity": system.m - res.rank,
        "core_vars": system.n,
        "core_eqs": system.m,
    }


def _task_census(params: dict, seed: Seed) -> dict:
    k, n, m = params["k"], params["n"], params["m"]
    inst = gen_constrained(k, m, n, seed)
    res = solve(BitMatrix.from_sparse_rows(n, inst.index), inst.bits)
    nullity = m - res.rank
    critical = (1 << nullity) - 1
    identity_ok = ""
    if m <= TINY_IDENTITY_MAX and n <= TINY_IDENTITY_MAX:
        identity_ok = int(_rhs_average_identity(inst, critical))
    return {"sat": int(res.consistent), "nullity": nullity, "critical_sets": str(critical), "identity_ok": identity_ok}


def _rhs_average_identity(inst: Instance, critical: int) -> bool:
    """E_b[N(b)^2] / E_b[N(b)]^2 = X + 1 over all 2^m rhs vectors b, exactly:
    one `lhs` call over all 2^n assignments x gives each b = Ax, and N(b)
    is its count.  sum_b N(b) = 2^n by construction, so this is
    sum_b N(b)^2 * 2^m = (X + 1) * 4^n in integers."""
    n, m = inst.n, inst.m
    every_x = np.arange(1 << n) >> np.arange(n)[:, None] & 1
    b = (inst.lhs(every_x).astype(np.int64) << np.arange(m)[:, None]).sum(axis=0)
    counts = np.bincount(b, minlength=1 << m).tolist()
    return sum(c * c for c in counts) << m == (critical + 1) << 2 * n


def _task_core(params: dict, seed: Seed) -> dict:
    core, _ = two_core(gen_unconstrained(params["k"], params["m"], params["n"], seed))
    return {"core_vars": core.n, "core_eqs": core.m, "ratio": repr(core.m / core.n) if core.n else ""}


def _task_collision(params: dict, seed: Seed) -> dict:
    alloc = gen_C_model(params["k"], params["m"], params["n"], seed)
    return {"collisions": collision_count(alloc), "degree_retries": alloc.retries}


def _run_one(task):
    """One trial's CSV row: the shared columns from the point's params, the rest from the kind's task."""
    kind, params, point_idx, trial_idx = task
    task_fn, header = _KINDS[kind][:2]
    seed = Seed(params["master"], mix_streams(point_idx, trial_idx))
    shared = {"point": point_idx, "trial": trial_idx, "sample": trial_idx, "stream": seed.stream}
    row = {**params, **shared, **task_fn(params, seed)}
    return {col: row[col] for col in header}


def _map_tasks(tasks: list, workers: int) -> list:
    if workers <= 1:
        return [_run_one(t) for t in tasks]
    # the pool forks every worker at its first submit: no more than tasks or cores
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    chunksize = max(1, len(tasks) // (workers * 8))
    with ProcessPoolExecutor(max_workers=workers) as pool:
        # pool.map preserves task order: merge order never depends on timing
        return list(pool.map(_run_one, tasks, chunksize=chunksize))


# ---------------------------------------------------------------------------
# Per-point aggregates: (config, point, the point's rows in trial order)


def _agg_sat(cfg: ExperimentConfig, point: dict, sub: list[dict]) -> dict:
    return {
        "c": point["c"],
        "n": cfg.n,
        "m": point["m"],
        "trials": len(sub),
        "sat_count": sum(r["sat"] for r in sub),
        "mean_nullity": float(np.mean([r["nullity"] for r in sub])),
        "mean_core_vars": float(np.mean([r["core_vars"] for r in sub])),
        "mean_core_eqs": float(np.mean([r["core_eqs"] for r in sub])),
    }


def _agg_census(cfg: ExperimentConfig, point: dict, sub: list[dict]) -> dict:
    checked = [r for r in sub if r["identity_ok"] != ""]
    return {
        "c": point["c"],
        "m": point["m"],
        "n": cfg.n,
        "trials": len(sub),
        "mean_critical_sets": float(np.mean([int(r["critical_sets"]) for r in sub])),
        "frac_rank_deficient": float(np.mean([r["nullity"] > 0 for r in sub])),
        "identity_checked": len(checked),
        "identity_ok": sum(r["identity_ok"] for r in checked),
    }


def _agg_core(cfg: ExperimentConfig, point: dict, sub: list[dict]) -> dict:
    pred_v, pred_e = core_sizes(cfg.k, point["c"])
    nonempty = [r for r in sub if r["core_vars"] > 0]
    return {
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


def _agg_collision(cfg: ExperimentConfig, point: dict, sub: list[dict]) -> dict:
    coll = np.array([r["collisions"] for r in sub], dtype=np.float64)
    lam = lambda_of(cfg.k * point["m"] / cfg.n)
    g = gamma(cfg.k, lam)
    return {
        "k": cfg.k,
        "n": cfg.n,
        "m": point["m"],
        "samples": len(sub),
        "mean_collisions": float(coll.mean()),
        "second_factorial_moment": float((coll * (coll - 1)).mean()),
        "p_zero": float((coll == 0).mean()),
        "mean_degree_retries": float(np.mean([r["degree_retries"] for r in sub])),
        "gamma": g,
        "gamma_sq": g * g,
        "exp_neg_gamma": math.exp(-g),
        "lambda": lam,
    }


def _agg_window(cfg: ExperimentConfig, point: dict, sub: list[dict]) -> dict:
    agg = {
        "w": point["w"],
        "side": point["side"],
        "m": point["m"],
        "n": cfg.n,
        "trials": len(sub),
        "sat_frac": float(np.mean([r["sat"] for r in sub])),
    }
    if point["side"] == "+":
        agg["unsat_envelope"] = 2.0 ** (-point["w"])
    return agg


# ---------------------------------------------------------------------------
# The campaign engine

# kind -> (task fn, CSV header, per-point aggregate fn, forced model or None)
_KINDS = {
    "sat_sweep": (
        _task_sat,
        ["point", "c", "n", "m", "trial", "stream", "sat", "rank", "nullity", "core_vars", "core_eqs"],
        _agg_sat,
        None,
    ),
    "critical_census": (
        _task_census,
        ["point", "c", "n", "m", "trial", "stream", "sat", "nullity", "critical_sets", "identity_ok"],
        _agg_census,
        MODEL_CONSTRAINED,
    ),
    "core_check": (
        _task_core,
        ["point", "c", "n", "m", "trial", "stream", "core_vars", "core_eqs", "ratio"],
        _agg_core,
        MODEL_UNCONSTRAINED,
    ),
    "collision_check": (
        _task_collision,
        ["sample", "stream", "n", "m", "collisions", "degree_retries"],
        _agg_collision,
        MODEL_RELAXED,
    ),
    "window_check": (
        _task_sat,
        ["point", "w", "side", "c", "n", "m", "trial", "stream", "sat", "rank", "nullity", "core_vars", "core_eqs"],
        _agg_window,
        MODEL_CONSTRAINED,
    ),
}


def _csv_text(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_csv_field(row[col]) for col in header])
    return buf.getvalue()


def _csv_field(v):
    if isinstance(v, float):
        return repr(v)
    return v


def run_experiment(cfg: ExperimentConfig) -> tuple[list[dict] | dict, list[dict], dict]:
    """Run one campaign and return (aggregates, per-trial rows, summary).

    aggregates holds one dict per point, except for collision_check, whose
    single point's dict is returned bare.  The summary is what is written
    to <out>.summary.json when cfg.out is set, next to the CSV at cfg.out.
    """
    cfg.validate()
    _, header, aggregate, forced = _KINDS[cfg.kind]
    cfg = replace(cfg, model=forced or cfg.model or MODEL_UNCONSTRAINED)
    t0 = time.time()
    points = cfg.points()
    tasks = []
    for point_idx, point in enumerate(points):
        params = {
            "master": cfg.master_seed,
            "k": cfg.k,
            "n": cfg.n,
            "model": cfg.model,
            **point,
        }
        tasks.extend((cfg.kind, params, point_idx, trial_idx) for trial_idx in range(cfg.trials))
    rows = _map_tasks(tasks, cfg.workers)
    # tasks are point-major and _map_tasks keeps their order
    aggregates = [aggregate(cfg, point, rows[i * cfg.trials:(i + 1) * cfg.trials]) for i, point in enumerate(points)]
    if cfg.kind == "collision_check":
        aggregates = aggregates[0]
    text = _csv_text(header, rows)
    summary = {
        "config": cfg.to_json_dict(),
        "aggregates": aggregates,
        "csv_sha256": hashlib.sha256(text.encode()).hexdigest(),
        "wall_time_s": time.time() - t0,
        "version": __version__,
        "kernel_backend": KERNEL_BACKEND,
    }
    if cfg.out:
        with open(cfg.out, "w") as fh:
            fh.write(text)
        with open(cfg.out + ".summary.json", "w") as fh:
            json.dump(summary, fh, indent=2)
    return aggregates, rows, summary


__all__ = [
    "ExperimentConfig",
    "run_experiment",
]
