import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from xorsatlab import formulas as F
from xorsatlab.formulas import ZetaChoice


def newton_psi_inverse(d, x0=3.0):
    """Independent Newton iteration oracle for psi^{-1}."""
    x = x0
    for _ in range(80):
        fx = F.f(x)
        fpx = F.f_prime(x)
        val = x * fpx / fx - d
        # psi'(x) = e^x (e^x + e^{-x} - 2 - x^2) / f(x)^2
        deriv = math.exp(x) * (math.exp(x) + math.exp(-x) - 2 - x * x) / fx**2
        step = val / deriv
        x -= step
        if abs(step) < 1e-14:
            break
    return x


class TestScalarBasics:
    def test_f_values(self):
        assert F.f(0.0) == 0.0
        assert F.f_prime(0.0) == 0.0
        assert math.isclose(F.f(1.0), math.e - 2.0, rel_tol=1e-15)

    def test_f_beats_reflection(self):
        for x in (0.5, 1.0, 2.0, 5.0):
            assert F.f(x) > F.f(-x) > 0.0

    def test_f_series_matches_rational_expansion(self):
        for x in (1e-8, -3e-5, 0.001, -0.01, 0.2, -0.24):
            xf = Fraction(x)
            ref = sum(xf**j / math.factorial(j) for j in range(2, 40))
            assert math.isclose(F.f(x), float(ref), rel_tol=1e-14)

    def test_psi_endpoints_and_paper_values(self):
        assert F.psi(0.0) == 2.0
        assert F.psi(2.149) < 3.0
        assert F.psi(2.7694) <= 3.3992
        with pytest.raises(ValueError):
            F.psi(-0.1)

    def test_psi_strictly_increasing_on_dense_grid(self):
        xs = np.linspace(0.0, 50.0, 2001)
        vals = [F.psi(x) for x in xs]
        assert all(a < b for a, b in zip(vals, vals[1:]))

    def test_lambda_of_brackets_and_inverse(self):
        lam3 = F.lambda_of(3.0)
        assert 2.149 < lam3 < 2.151
        for d in (2.5, 3.0, 3.6, 4.0, 8.0):
            assert abs(F.psi(F.lambda_of(d)) - d) < 1e-10
        assert math.isclose(F.lambda_of(4.0), 3.594, abs_tol=5e-4)
        assert math.isclose(F.lambda_of(4.0), newton_psi_inverse(4.0), abs_tol=1e-11)
        with pytest.raises(ValueError):
            F.lambda_of(2.0)

    def test_lambda_of_is_left_inverse_of_psi(self):
        for x in np.linspace(2.01, 40.0, 120):
            assert abs(F.lambda_of(F.psi(x)) - x) < 1e-10

    def test_var_Z_bounds_and_tail(self):
        for lam in (0.1, 1.0, 2.1491, 5.0, 10.0):
            v = F.var_Z(lam)
            assert lam / 3.0 <= v <= lam
        # Poisson regime: ratio approaches 1 from below (truncation correction
        # ~ lam^2 e^{-lam} drops below double resolution near lam ~ 37)
        assert 0.95 < F.var_Z(30.0) / 30.0 < 1.0
        assert 0.95 < F.var_Z(50.0) / 50.0 <= 1.0
        with pytest.raises(ValueError):
            F.var_Z(0.0)

    def test_gamma_values(self):
        lam = F.lambda_of(3.6)
        assert math.isclose(F.gamma(3, lam), lam / (1 - math.exp(-lam)), rel_tol=1e-14)
        assert math.isclose(F.gamma(3, lam), 3.2077, abs_tol=2e-4)
        grid = np.linspace(0.05, 12.0, 200)
        vals = [F.gamma(3, x) for x in grid]
        assert all(a < b for a, b in zip(vals, vals[1:]))
        assert math.isclose(F.gamma(3, 1e-9), 1.0, abs_tol=1e-6)

    def test_alpha_k_inequalities(self):
        assert 0.99 * F.alpha_k(4) > 0.1681
        assert 0.99 * F.alpha_k(5) > 0.1840
        for k in range(4, 65):
            assert F.alpha_k(k) < 0.2

    def test_entropy(self):
        assert F.entropy(0.0) == 0.0
        assert F.entropy(1.0) == 0.0
        assert math.isclose(F.entropy(0.5), math.log(2.0), rel_tol=1e-15)
        for x in (0.1, 0.2, 0.4514, 0.9):
            assert F.entropy(0.5 - x / 2.0) <= math.log(4.0 / (x * x + 2.0))
        with pytest.raises(ValueError):
            F.entropy(1.2)

    def test_cosh_gaussian_domination(self):
        for x in np.linspace(0.0, 10.0, 400):
            assert math.cosh(x) <= math.exp(x * x / 2.0) + 1e-12


class TestRateFunction:
    def test_two_code_paths_agree(self):
        for k, c, alpha in [(4, 1.0, 0.3), (3, 0.98, 0.25), (5, 0.9, 0.45), (4, 1.1, 0.17)]:
            full = F.H_k(alpha, ZetaChoice(alpha, 1.0 - alpha), c, k)
            sym = F.h_k_symmetric(alpha, c, k)
            assert abs(full - sym) < 1e-12

    def test_k3_grid_point(self):
        assert F.H_k(0.300, ZetaChoice(0.360, 0.667), 1.0, 3) < -0.002

    def test_small_alpha_bound_is_tight_at_alpha_k(self):
        # at alpha = alpha_k the analytic small-alpha envelope equals 0
        k, c = 4, 1.0
        ak = F.alpha_k(k)
        zeta = F.zeta_choice(k, c, ak * 0.999999)
        val = F.H_k(ak, zeta, c, k)
        envelope = (c * ak) * (k / 2.0 - 1.0) * math.log(ak / ak)
        assert envelope == 0.0
        assert val <= envelope

    def test_small_alpha_envelope_dominates(self):
        k, c = 4, 1.0
        ak = F.alpha_k(k)
        for alpha in (ak / 10, ak / 3, 0.9 * ak):
            zeta = F.zeta_choice(k, c, alpha)
            env = (c * alpha) * (k / 2.0 - 1.0) * math.log(alpha / ak)
            assert F.H_k(alpha, zeta, c, k) <= env + 1e-12

    def test_s_k_values(self):
        v = F.s_k(4, 0.2743)
        assert -1.6e-5 < v < -1.4e-5
        assert F.s_k(6, 0.2) < F.s_k(5, 0.2) < F.s_k(4, 0.2)
        assert F.s_k(4, 0.0) == 0.0

    def test_R_constants_and_limit(self):
        assert F.R(2.7694, 0.4514) < 0.5
        assert F.R(3.5, 0.4514) < 0.4
        assert F.R(2.149, 0.2) <= 0.495
        lam = 1.7
        assert math.isclose(F.R(lam, 1e-7), F.R0(lam), rel_tol=1e-6)
        with pytest.raises(ValueError):
            F.R(1.0, 0.0)

    def test_R_monotone_grids(self):
        lams = np.linspace(0.2, 8.0, 25)
        xs = np.linspace(0.05, 1.0, 25)
        for lam in lams:
            vals = [F.R(lam, x) for x in xs]
            assert all(a <= b + 1e-14 for a, b in zip(vals, vals[1:]))
        for x in xs:
            vals = [F.R(lam, x) for lam in lams]
            assert all(a >= b - 1e-14 for a, b in zip(vals, vals[1:]))

    def test_zeta_choice_cases(self):
        assert F.zeta_choice(4, 1.0, 0.3) == ZetaChoice(0.3, 0.7)
        mirrored = F.zeta_choice(4, 1.0, 0.7)
        base = F.zeta_choice(4, 1.0, 0.3)
        assert mirrored.zeta1 == base.zeta2 and abs(mirrored.zeta2 - base.zeta1) < 1e-15
        small = F.zeta_choice(4, 1.0, 0.01)
        assert math.isclose(small.zeta1, 0.05, rel_tol=1e-12)
        assert small.zeta2 == 0.99
        near_one = F.zeta_choice(4, 1.0, 0.97)
        assert near_one == ZetaChoice(0.95, 0.05)


class TestCoreThresholds:
    def test_g_k_minimum_and_star(self):
        assert 0.9179 < F.c_star(3) < 0.9180
        assert math.isclose(F.c_star(4), 0.9768, abs_tol=1e-4)
        assert math.isclose(F.c_hat(3), 0.8185, abs_tol=1e-4)

    def test_lambda_k_is_larger_preimage(self):
        for k in range(3, 11):
            lam = F.lambda_of(float(k))
            h = 1e-6
            slope = (F.g_k(k, lam + h) - F.g_k(k, lam - h)) / (2 * h)
            assert slope > 0.0

    def test_mu_of_roots_and_no_core_signal(self):
        for k, c in [(3, 0.95), (3, 0.9), (4, 1.0), (5, 0.99)]:
            mu = F.mu_of(k, c)
            assert abs(F.g_k(k, mu) - c) < 1e-10 * max(1.0, c)
        assert F.mu_of(3, 0.7) is None
        assert F.core_sizes(3, 0.7) == (0.0, 0.0)

    def test_core_ratio_is_one_at_threshold(self):
        for k in (3, 4, 5):
            fv, fe = F.core_sizes(k, F.c_star(k))
            assert abs(fe / fv - 1.0) < 1e-9

    def test_threshold_report(self):
        d = F.threshold_report(3, 0.95)
        assert abs(F.psi(d["lambda"]) - 3 * 0.95) < 1e-10 * 3
        assert abs(F.g_k(3, d["mu"]) - 0.95) < 1e-10
        assert d["c_star"] == F.c_star(3)
        assert set(d) >= {"lambda", "gamma", "alpha_k", "c_hat", "mu", "c_star"}
        with pytest.raises(ValueError):
            F.threshold_report(3, 0.5)


class TestExactCounts:
    def test_exact_a_single_column(self):
        # (cosh z - 1) has coefficient 1/(k ell)! at even orders >= 2
        assert F.exact_a(3, 2, 1) == 1
        assert F.exact_a(3, 1, 1) == 0  # odd total
        assert F.exact_a(4, 1, 1) == 1

    def test_exact_EY_against_full_enumeration(self):
        # enumerate every chip->column map, count even-column-sum row subsets
        for k, m, n in [(3, 2, 2), (3, 3, 2), (2, 3, 2)]:
            km = k * m
            total = 0
            sums = {ell: 0 for ell in range(1, m + 1)}
            for assign in product(range(n), repeat=km):
                tallies = [0] * n
                for col in assign:
                    tallies[col] += 1
                if any(t < 2 for t in tallies):
                    continue
                total += 1
                for mask in range(1, 1 << m):
                    cols = [0] * n
                    for i in range(m):
                        if (mask >> i) & 1:
                            for t in range(i * k, (i + 1) * k):
                                cols[assign[t]] += 1
                    if all(c % 2 == 0 for c in cols):
                        sums[bin(mask).count("1")] += 1
            for ell in range(1, m + 1):
                assert F.exact_EY(k, m, n, ell) == Fraction(sums[ell], total)

    def test_exact_EY_monte_carlo_cross_check(self):
        from conftest import row_ints
        from xorsatlab.gf2 import BitMatrix
        from xorsatlab.instances import gen_C_model
        from xorsatlab.rng import Seed

        k = m = n = 3
        samples = 60000
        counts = {1: 0, 2: 0, 3: 0}
        for i in range(samples):
            alloc = gen_C_model(k, m, n, Seed(999, i))
            mat = BitMatrix.from_sparse_rows(n, alloc.row_columns())
            rows = row_ints(mat)
            for mask in range(1, 1 << m):
                acc = 0
                for j in range(m):
                    if (mask >> j) & 1:
                        acc ^= rows[j]
                if acc == 0:
                    counts[bin(mask).count("1")] += 1
        exact2 = float(F.exact_EY(3, 3, 3, 2))
        mean2 = counts[2] / samples
        # Y^(2) per sample is in {0, 1, 3}: bound the sd generously by 3
        assert abs(mean2 - exact2) < 5 * 3.0 / math.sqrt(samples)
        assert F.exact_EY(3, 3, 3, 1) == 0 and counts[1] == 0
        assert F.exact_EY(3, 3, 3, 3) == 0 and counts[3] == 0

    def test_vacuous_parity_branch_recovers_allocation_count(self):
        # replace (cosh z - 1)^nu with the >=2 series: at ell = m, nu = n the
        # sum over nu collapses and must reproduce the total allocation count
        from xorsatlab.instances import count_C_exact

        for k, m, n in [(3, 2, 2), (3, 4, 4), (4, 3, 5)]:
            km = k * m
            total = count_C_exact(k, m, n)
            assert F.count_maps_ge2(n, km) == total
            assert F.exact_b(k, m, 0, 0, n) == total
            collapsed = sum(
                math.comb(n, nu) * F.count_maps_ge2(nu, km) * F.exact_b(k, m, m, nu, n)
                for nu in range(1, n + 1)
            )
            assert collapsed == total


class TestRateBound:
    def test_bound_decreases_with_better_zeta(self):
        k, c, n, ell = 4, 0.9, 200, 12
        base = F.bound_EY(k, c, n, ell)
        candidates = [base]
        alpha = ell / round(c * n)
        for z1 in (0.5 * alpha, alpha, 2 * alpha):
            for z2 in (0.8 * (1 - alpha), 1 - alpha):
                candidates.append(F.bound_EY(k, c, n, ell, ZetaChoice(z1, z2)))
        assert min(candidates) <= base + 1e-12

    def test_bound_matches_small_ell_envelope(self):
        k, c, n, ell = 4, 0.9, 1000, 2
        m = round(c * n)
        zeta = F.zeta_choice(k, c, ell / m)
        bound = F.bound_EY(k, c, n, ell, zeta)
        ell_k = F.alpha_k(k) * m
        envelope = (k / 2.0 - 1.0) * ell * math.log(ell / ell_k)
        assert bound <= envelope + 0.5 * math.log(1.0 / zeta.zeta2) + 1e-9
        assert bound >= envelope - 5.0

    def test_bound_dominates_exact_expectation(self):
        for k, m, n in [(3, 4, 5), (3, 6, 8), (4, 5, 8), (3, 10, 14)]:
            c = m / n
            for ell in range(1, m + 1):
                ey = F.exact_EY(k, m, n, ell)
                if ey > 0:
                    assert F.bound_EY(k, c, n, ell) >= math.log(ey)


def test_exact_budget_guards():
    from xorsatlab.errors import BudgetExceededError

    with pytest.raises(BudgetExceededError):
        F.exact_a(3, 50, 2)
    with pytest.raises(BudgetExceededError):
        F.exact_b(3, 60, 1, 1, 10)
    with pytest.raises(BudgetExceededError):
        F.exact_EY(3, 60, 30, 2)
    with pytest.raises(ValueError):
        F.exact_EY(3, 4, 5, 0)


def test_zeta_choice_orders_components_below_half():
    # the tilt recipes keep zeta2 >= zeta1 throughout alpha <= 1/2
    for k in (3, 4, 6):
        for alpha in np.linspace(0.001, 0.5, 200):
            z = F.zeta_choice(k, 1.0, float(alpha))
            assert z.zeta2 >= z.zeta1
