"""Acceptance suite: one test per criterion, tolerances pinned, runtimes enforced.

Each test prints one PASS line (visible with `pytest -v -s` or in the
captured output); a failed assertion is the FAIL signal.  Statistical gates
use the exact sizes and tolerances stated below; they are sized so the
false-failure probability of the whole suite is well under 1e-3.
"""

import math
import time
from collections import Counter
from fractions import Fraction
from itertools import product

import numpy as np

from conftest import brute_force_critical_sets, count_critical_sets
from xorsatlab import formulas as F
from xorsatlab.certify import (
    certify_alarge_constants,
    certify_amed,
    certify_k3_grid,
    certify_monotonicity,
    hk_cell_bound,
    interval_s_k,
)
from xorsatlab.experiments import ExperimentConfig, run_experiment
from xorsatlab.gf2 import BitMatrix, solve
from xorsatlab.instances import count_C_exact, gen_constrained, gen_unconstrained
from xorsatlab.intervals import Interval
from xorsatlab.peel import two_core
from xorsatlab.rng import Seed


def _report(num: int, elapsed: float, limit: float, msg: str) -> None:
    assert elapsed < limit, f"criterion {num} exceeded its runtime budget: {elapsed:.1f}s >= {limit}s"
    print(f"ACCEPTANCE {num:2d} PASS ({elapsed:6.1f}s < {limit:g}s): {msg}")


def test_criterion_01_threshold_constants():
    t0 = time.perf_counter()
    cs3 = F.c_star(3)
    lam3 = F.lambda_of(3.0)
    assert 0.9179 < cs3 < 0.9180
    assert 2.149 < lam3 < 2.151
    assert F.psi(2.7694) <= 3.3992
    assert 0.99 * F.alpha_k(4) > 0.1681
    assert 0.99 * F.alpha_k(5) > 0.1840
    _report(1, time.perf_counter() - t0, 1.0,
            f"c*_3={cs3:.6f}, lambda(3)={lam3:.6f}, psi(2.7694)={F.psi(2.7694):.5f}")


def test_criterion_02_exact_rhs_average_identities():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240802)
    checked = 0
    while checked < 100:
        m = int(rng.integers(3, 9))
        n_hi = min(10, (3 * m) // 2)
        n = int(rng.integers(3, n_hi + 1))
        inst = gen_constrained(3, m, n, Seed(8001, checked))
        mat = BitMatrix.from_sparse_rows(n, inst.rows)
        total = Fraction(0)
        total_sq = Fraction(0)
        for bits in range(1 << m):
            b = [(bits >> i) & 1 for i in range(m)]
            res = solve(mat, b)
            cnt = (1 << res.solution_count_log2) if res.consistent else 0
            total += cnt
            total_sq += cnt * cnt
        assert total == Fraction(2) ** n, "sum over rhs of N(b) must be exactly 2^n"
        mean = total / (1 << m)
        mean_sq = total_sq / (1 << m)
        assert mean_sq / mean**2 == count_critical_sets(mat) + 1
        checked += 1
    _report(2, time.perf_counter() - t0, 30.0, "100 instances: sum_b N(b) = 2^n and E[N^2]/E[N]^2 = X+1 exactly")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20240803)
    for i in range(100):
        rows = int(rng.integers(6, 21))
        cols = int(rng.integers(4, 16))
        mat = BitMatrix.from_dense(rng.integers(0, 2, size=(rows, cols), dtype=np.uint8))
        assert count_critical_sets(mat) == brute_force_critical_sets(mat)

    def naive_core_eqs(inst):
        rows = inst.rows
        alive_eqs = set(range(inst.m))
        alive_vars = set(range(inst.n))
        while True:
            deg = Counter()
            for e in alive_eqs:
                for v in rows[e]:
                    deg[v] += 1
            low = {v for v in alive_vars if deg[v] <= 1}
            if not low:
                return sorted(alive_eqs)
            alive_vars -= low
            alive_eqs = {e for e in alive_eqs if not low.intersection(rows[e])}

    for i in range(200):
        n = int(rng.integers(50, 260))
        m = int(rng.integers(max(3, n // 3), int(1.1 * n)))
        inst = gen_unconstrained(3, m, n, Seed(8003, i))
        _, trace = two_core(inst)
        assert trace.core_eq_ids.tolist() == naive_core_eqs(inst)

    assert count_C_exact(3, 2, 2) == 50
    for k, m, n in [(3, 2, 2), (3, 2, 3), (3, 4, 2), (2, 4, 4), (2, 6, 3)]:
        km = k * m
        expected = 0
        for assign in product(range(n), repeat=km):
            tallies = [0] * n
            for col in assign:
                tallies[col] += 1
            expected += all(t >= 2 for t in tallies)
        assert count_C_exact(k, m, n) == expected
    _report(3, time.perf_counter() - t0, 60.0,
            "critical-set, 2-core and allocation-count oracles all agree")


def test_criterion_04_interval_certificates():
    t0 = time.perf_counter()
    amed4 = certify_amed(4)
    assert amed4.verified and amed4.global_bound < -1e-5
    assert interval_s_k(5, Interval(0.1840, 0.2291)).hi < -0.005
    assert interval_s_k(5, Interval(0.2291, 0.2743)).hi < -0.005
    assert interval_s_k(6, Interval(0.1666, 0.2204)).hi < -0.03
    assert interval_s_k(6, Interval(0.2204, 0.2743)).hi < -0.03
    grid = certify_k3_grid((0.999, 1.001))
    assert grid.verified and len(grid.cells) == 301
    assert all(cell.bound < -0.002 for cell in grid.cells)
    assert hk_cell_bound(3, (0.300, 0.301), (0.360, 0.667), (0.999, 1.001)) < -0.002
    assert certify_alarge_constants().verified
    assert certify_monotonicity().verified
    _report(4, time.perf_counter() - t0, 300.0,
            f"amed(4) bound {amed4.global_bound:.3g} ({len(amed4.cells)} cells); "
            f"k3 grid 301/301 cells, worst {grid.global_bound:.5f}; alarge + monotone verified")


def test_criterion_05_s4_point_value():
    t0 = time.perf_counter()
    v = F.s_k(4, 0.2743)
    assert -1.6e-5 < v < -1.4e-5
    _report(5, time.perf_counter() - t0, 1.0, f"s_4(0.2743) = {v:.4g}")


def test_criterion_06_unconstrained_transition():
    t0 = time.perf_counter()
    cfg = ExperimentConfig("sat_sweep", 3, 3000, 200, 20240806, "unconstrained", c_grid=[0.87, 0.97], workers=2)
    aggs, _, _ = run_experiment(cfg)
    frac_lo = aggs[0]["sat_count"] / aggs[0]["trials"]
    frac_hi = aggs[1]["sat_count"] / aggs[1]["trials"]
    assert frac_lo >= 0.9
    assert frac_hi <= 0.1
    assert 0.87 < F.c_star(3) < 0.97
    _report(6, time.perf_counter() - t0, 600.0,
            f"k=3 n=3000: sat {frac_lo:.3f} at c=0.87, {frac_hi:.3f} at c=0.97 (c*_3={F.c_star(3):.5f})")


def test_criterion_07_constrained_transition_and_window():
    t0 = time.perf_counter()
    cfg = ExperimentConfig("sat_sweep", 4, 1000, 200, 20240807, "constrained", m_list=[900, 1100], workers=2)
    aggs, _, _ = run_experiment(cfg)
    frac_sat = aggs[0]["sat_count"] / aggs[0]["trials"]
    frac_unsat_side = aggs[1]["sat_count"] / aggs[1]["trials"]
    assert frac_sat >= 0.98
    assert frac_unsat_side <= 0.02
    wcfg = ExperimentConfig("window_check", 4, 1000, 500, 20240907, w_list=[15], workers=2)
    waggs, _, _ = run_experiment(wcfg)
    plus = next(a for a in waggs if a["side"] == "+")
    minus = next(a for a in waggs if a["side"] == "-")
    p = 2.0 * 2.0**-15
    gate = 1.0 - p - 3.0 * math.sqrt(p * (1 - p) / wcfg.trials)
    unsat_frac = 1.0 - plus["sat_frac"]
    assert unsat_frac >= gate
    assert minus["sat_frac"] >= 0.95
    _report(7, time.perf_counter() - t0, 600.0,
            f"k=4 n=1000: sat {frac_sat:.3f} at m=900, {frac_unsat_side:.3f} at m=1100; "
            f"window m=n+15 unsat {unsat_frac:.5f} >= {gate:.5f}")


def test_criterion_08_core_statistics():
    t0 = time.perf_counter()
    cfg = ExperimentConfig("core_check", 3, 100_000, 20, 20240808, c_grid=[0.95])
    aggs, rows, _ = run_experiment(cfg)
    mu = F.mu_of(3, 0.95)
    pred_vars = (math.exp(mu) - 1 - mu) / math.exp(mu)
    pred_ratio = F.psi(mu) / 3.0
    mean_vars = aggs[0]["mean_core_vars_frac"]
    mean_ratio = aggs[0]["mean_ratio"]
    assert abs(mean_vars - pred_vars) < 0.01
    assert abs(mean_ratio - pred_ratio) < 0.01
    cstar = F.c_star(3)
    cfg2 = ExperimentConfig("core_check", 3, 100_000, 20, 20240908, m_list=[round(cstar * 100_000)])
    aggs2, _, _ = run_experiment(cfg2)
    assert 0.98 <= aggs2[0]["mean_ratio"] <= 1.02
    _report(8, time.perf_counter() - t0, 120.0,
            f"k=3 c=0.95 n=1e5: N/n {mean_vars:.4f} vs {pred_vars:.4f}, "
            f"M/N {mean_ratio:.4f} vs {pred_ratio:.4f}; at c* ratio {aggs2[0]['mean_ratio']:.4f}")


def test_criterion_09_chip_model_statistics():
    t0 = time.perf_counter()
    cfg = ExperimentConfig("collision_check", 3, 500, 10_000, 20240809, m_list=[600], workers=2)
    agg, _, _ = run_experiment(cfg)
    g = agg["gamma"]
    assert abs(agg["mean_collisions"] - g) < 0.05 * g
    assert abs(agg["second_factorial_moment"] - g * g) < 0.10 * g * g
    assert abs(agg["p_zero"] - agg["exp_neg_gamma"]) < 0.15 * agg["exp_neg_gamma"]
    _report(9, time.perf_counter() - t0, 120.0,
            f"k=3 m=600 n=500: mean {agg['mean_collisions']:.3f} vs gamma {g:.3f}; "
            f"factorial2 {agg['second_factorial_moment']:.2f} vs {g * g:.2f}; "
            f"P(0) {agg['p_zero']:.4f} vs e^-gamma {agg['exp_neg_gamma']:.4f}")


def test_criterion_10_enumeration_asymptotics():
    t0 = time.perf_counter()
    k, m, n = 3, 100, 100
    got = count_C_exact(k, m, n)
    lam = F.lambda_of(k * m / n)
    approx = (
        math.lgamma(k * m + 1)
        + n * math.log(F.f(lam))
        - k * m * math.log(lam)
        - 0.5 * math.log(2 * math.pi * n * F.var_Z(lam))
    )
    ratio = math.exp(math.log(got) - approx)
    assert 0.95 <= ratio <= 1.05
    _report(10, time.perf_counter() - t0, 10.0, f"count/asymptotic ratio = {ratio:.5f}")


def test_criterion_11_reproducibility_across_workers(tmp_path):
    t0 = time.perf_counter()
    blobs = {}
    for workers in (1, 4):
        out = tmp_path / f"rep_{workers}.csv"
        cfg = ExperimentConfig(
            "sat_sweep", 3, 400, 16, 424242, "unconstrained",
            c_grid=[0.85, 0.95], out=str(out), workers=workers,
        )
        run_experiment(cfg)
        blobs[workers] = out.read_bytes()
        out2 = tmp_path / f"col_{workers}.csv"
        ccfg = ExperimentConfig(
            "collision_check", 3, 200, 600, 434343, m_list=[240], out=str(out2), workers=workers,
        )
        run_experiment(ccfg)
        blobs[f"col{workers}"] = out2.read_bytes()
    assert blobs[1] == blobs[4]
    assert blobs["col1"] == blobs["col4"]
    _report(11, time.perf_counter() - t0, 120.0, "byte-identical CSVs for worker counts 1 and 4")
