"""Scalar formulas for random k-XORSAT thresholds.

Everything is built from the truncated exponential

    f(x) = e^x - 1 - x = sum_{j>=2} x^j / j!

and its log-derivative ratio psi(x) = x f'(x) / f(x), the mean of the
>=2-truncated Poisson with tilt x (psi(0) = 2 by continuity, psi strictly
increasing).  For an instance with m equations of weight k over n variables
the tilt is lambda = psi^{-1}(k m / n).

Core / threshold quantities for the unconstrained model: g_k(x) =
x / (k (1 - e^{-x})^{k-1}) whose minimum c_hat(k) is the 2-core emergence
density, mu the larger preimage of c under g_k, and c_star(k) =
g_k(lambda(k)) the satisfiability threshold (the density at which the
2-core reaches one equation per variable).

The exponential rate H_k(alpha, zeta; c) bounds the expected number of
critical row sets of relative size alpha in the minimum-degree-2 chip
model; its negativity is what the certifier module re-verifies in interval
arithmetic.  exact_a / exact_b / exact_EY evaluate the same counts exactly
for small systems from two closed-form sums, count_maps_ge2 and
count_maps_even, which expand the generating-function powers by
inclusion-exclusion.

Near 0 the obvious expressions for f, psi, var_Z lose all precision to
cancellation, so each has a short even/odd series branch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from xorsatlab.errors import BudgetExceededError

_EXACT_ORDER_LIMIT = 120  # largest order that exact_a / exact_b / exact_EY evaluate
_SERIES_CUT = 1e-4
_X_TOL = 1e-13
_ZETA_DELTA = 0.05  # zeta_choice's fixed tilt (1 - delta, delta) for alpha >= 1 - delta

# 1/j! for j = 2..14: the series branch of f below |x| = 0.25 (truncation
# < 1e-19 relative there; the direct expm1(x) - x form cancels to ~1e-12
# relative at |x| ~ 1e-4, far too coarse for the exactness tests)
_F_TERMS = 14
_F_COEFFS = tuple(1.0 / math.factorial(j) for j in range(2, _F_TERMS + 1))
_F_CUT = 0.25


# ---------------------------------------------------------------------------
# f, psi and the tilt inverse


def f(x: float) -> float:
    """e^x - 1 - x, series-protected near 0 (value ~ x^2/2)."""
    if abs(x) < _F_CUT:
        acc = _F_COEFFS[-1]
        for coef in reversed(_F_COEFFS[:-1]):
            acc = coef + x * acc
        return x * x * acc
    return math.expm1(x) - x


def f_prime(x: float) -> float:
    """e^x - 1."""
    return math.expm1(x)


def psi(x: float) -> float:
    """x f'(x) / f(x) for x >= 0; psi(0) = 2 by continuity."""
    if x < 0:
        raise ValueError("psi is defined for x >= 0")
    if x < _SERIES_CUT:
        num = 1.0 + x * (0.5 + x * (1.0 / 6 + x * (1.0 / 24 + x / 120)))
        den = 1.0 + x * (1.0 / 3 + x * (1.0 / 12 + x * (1.0 / 60 + x / 360)))
        return 2.0 * num / den
    return x * f_prime(x) / f(x)


def lambda_of(d: float) -> float:
    """Unique positive root of psi(x) = d, for d > 2 (bisection, |dx| <= 1e-13)."""
    if d <= 2:
        raise ValueError(f"psi(x) = {d} has no positive root (psi > 2 on x > 0)")
    return _increasing_root(psi, d, 0.0, 1.0)


def _increasing_root(fn, y: float, lo: float, hi: float) -> float:
    """Root of fn(x) = y, fn increasing and fn(lo) <= y: hi doubles until fn(hi) > y, then bisection to _X_TOL."""
    while fn(hi) <= y:
        hi *= 2.0
    while hi - lo > _X_TOL:
        mid = 0.5 * (lo + hi)
        if fn(mid) < y:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def var_Z(lam: float) -> float:
    """Variance of the >=2-truncated Poisson with tilt lam (in [lam/3, lam])."""
    if lam <= 0:
        raise ValueError("tilt must be positive")
    p = psi(lam)
    t = lam * lam * math.exp(lam) / f(lam)
    return t + p - p * p


def gamma(k: int, lam: float) -> float:
    """(k-1)/2 * lam e^lam / (e^lam - 1): limiting mean chip-collision count."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if lam <= 0:
        raise ValueError("tilt must be positive")
    return 0.5 * (k - 1) * lam / (-math.expm1(-lam))


# ---------------------------------------------------------------------------
# Exponential rate H_k and companions


def alpha_k(k: int) -> float:
    """e * k^{-k/(k-2)}: crossover size below which small critical sets are rate-dominated."""
    if k < 3:
        raise ValueError("k must be >= 3")
    return math.exp(1.0 - k * math.log(k) / (k - 2))


def entropy(alpha: float) -> float:
    """Natural-log binary entropy -a ln a - (1-a) ln(1-a) with 0 ln 0 = 0."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("entropy argument must lie in [0, 1]")
    out = 0.0
    if alpha > 0.0:
        out -= alpha * math.log(alpha)
    if alpha < 1.0:
        out -= (1.0 - alpha) * math.log(1.0 - alpha)
    return out


@dataclass(frozen=True)
class ZetaChoice:
    """Chernoff tilt pair (zeta1 for rows inside the set, zeta2 outside)."""

    zeta1: float
    zeta2: float


def _xlog_ratio(x: float, z: float) -> float:
    """x ln(x/z) with the limit 0 at x = 0."""
    if x == 0.0:
        return 0.0
    return x * math.log(x / z)


def _hk_terms(alpha: float, zeta1: float, zeta2: float, c: float, k: int, lam: float) -> float:
    abar = 1.0 - alpha
    head = c * entropy(alpha) + c * k * _xlog_ratio(alpha, zeta1) + c * k * _xlog_ratio(abar, zeta2)
    tail = math.log((f(lam * (zeta2 + zeta1)) + f(lam * (zeta2 - zeta1))) / (2.0 * f(lam)))
    return head + tail


def H_k(alpha: float, zeta: ZetaChoice, c: float, k: int) -> float:
    """Exponential rate of the expected critical-set count at relative size alpha.

    c H(a) + c k a ln(a/z1) + c k (1-a) ln((1-a)/z2)
      + ln[(f(lam(z2+z1)) + f(lam(z2-z1))) / (2 f(lam))],  lam = psi^{-1}(ck).

    f of a negative argument is fine: f(-x) = e^{-x} - 1 + x > 0.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if zeta.zeta1 <= 0.0 or zeta.zeta2 <= 0.0:
        raise ValueError("zeta components must be positive")
    if c * k <= 2:
        raise ValueError("need c k > 2 for the tilt to exist")
    lam = lambda_of(c * k)
    return _hk_terms(alpha, zeta.zeta1, zeta.zeta2, c, k, lam)


def h_k_symmetric(alpha: float, c: float, k: int) -> float:
    """Independent evaluation of H_k at zeta = (alpha, 1-alpha):

    c H(a) + ln(1/2 + f(lam(1-2a)) / (2 f(lam))).
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    if c * k <= 2:
        raise ValueError("need c k > 2 for the tilt to exist")
    lam = lambda_of(c * k)
    return c * entropy(alpha) + math.log(0.5 + 0.5 * f(lam * (1.0 - 2.0 * alpha)) / f(lam))


def s_k(k: int, alpha: float) -> float:
    """H(a) + ln(1/2 + 1/2 e^{-2 k a}): c-free upper envelope of H_k at zeta=(a, 1-a)."""
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must lie in [0, 1]")
    return entropy(alpha) + math.log(0.5 + 0.5 * math.exp(-2.0 * k * alpha))


def R(lam: float, x: float) -> float:
    """f(lam x) / (x^2 f(lam)); increasing in x, decreasing in lam."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    if not 0.0 < x <= 1.0:
        raise ValueError("x must lie in (0, 1]; use R0 for the x->0 limit")
    return f(lam * x) / (x * x * f(lam))


def R0(lam: float) -> float:
    """x -> 0+ limit of R(lam, x): lam^2 / (2 f(lam))."""
    if lam <= 0:
        raise ValueError("lam must be positive")
    return lam * lam / (2.0 * f(lam))


def zeta_choice(k: int, c: float, alpha: float) -> ZetaChoice:
    """Piecewise tilt choice by alpha range, with delta = _ZETA_DELTA:

    alpha <= 0.99 alpha_k : ((ck)^{-1/2} alpha^{1/2}, 1 - alpha)
    alpha in (.., 1/2]    : (alpha, 1 - alpha)
    alpha in (1/2, 1-delta): mirror of 1 - alpha with components swapped
    alpha >= 1 - delta    : (1 - delta, delta)
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    ak = alpha_k(k)
    if alpha >= 1.0 - _ZETA_DELTA:
        return ZetaChoice(1.0 - _ZETA_DELTA, _ZETA_DELTA)
    if alpha > 0.5:
        mirror = zeta_choice(k, c, 1.0 - alpha)
        return ZetaChoice(mirror.zeta2, mirror.zeta1)
    if alpha <= 0.99 * ak:
        return ZetaChoice(math.sqrt(alpha / (c * k)), 1.0 - alpha)
    return ZetaChoice(alpha, 1.0 - alpha)


def bound_EY(k: int, c: float, n: int, ell: int, zeta: ZetaChoice | None = None) -> float:
    """log of the rate bound sqrt(1/zeta2) exp(n H_k(alpha, zeta; c)), alpha = ell/m.

    The absolute constant multiplying the bound is omitted; callers compare
    against it only up to O(1).
    """
    m = round(c * n)
    if not 1 <= ell <= m:
        raise ValueError(f"ell must lie in [1, {m}]")
    alpha = ell / m
    if zeta is None:
        zeta = zeta_choice(k, c, alpha)
    return n * H_k(alpha, zeta, c, k) + 0.5 * math.log(1.0 / zeta.zeta2)


# ---------------------------------------------------------------------------
# 2-core density functions and thresholds


def g_k(k: int, x: float) -> float:
    """x / (k (1 - e^{-x})^{k-1}): equations-per-variable density whose 2-core has tilt x."""
    if x <= 0:
        raise ValueError("x must be positive")
    return x / (k * (-math.expm1(-x)) ** (k - 1))


@lru_cache(maxsize=None)
def _g_min(k: int) -> tuple[float, float]:
    """(argmin, min) of g_k on (0, inf) by golden-section search (g_k is convex)."""
    hi = 1.0
    while g_k(k, 2.0 * hi) <= g_k(k, hi):
        hi *= 2.0
    hi *= 2.0
    lo = 1e-9
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = g_k(k, c1), g_k(k, c2)
    while b - a > 1e-12:
        if f1 < f2:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = g_k(k, c1)
        else:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = g_k(k, c2)
    x = 0.5 * (a + b)
    return x, g_k(k, x)


def c_hat(k: int) -> float:
    """2-core emergence threshold: minimum of g_k."""
    return _g_min(k)[1]


def mu_of(k: int, c: float) -> float | None:
    """Larger root of g_k(mu) = c, or None when c < c_hat(k) (no core)."""
    xmin, cmin = _g_min(k)
    if c < cmin:
        return None
    return _increasing_root(lambda x: g_k(k, x), c, xmin, max(2.0 * xmin, 1.0))


def c_star(k: int) -> float:
    """Satisfiability threshold of the unconstrained model: g_k(psi^{-1}(k))."""
    return g_k(k, lambda_of(float(k)))


def core_sizes(k: int, c: float) -> tuple[float, float]:
    """Leading-order 2-core fractions (vars/n, eqs/n); (0, 0) when the core is empty.

    vars/n = (e^mu - 1 - mu)/e^mu,  eqs/n = mu (e^mu - 1)/(k e^mu),
    with mu the larger root of g_k(mu) = c.
    """
    mu = mu_of(k, c)
    if mu is None:
        return 0.0, 0.0
    emu = math.exp(mu)
    return (emu - 1.0 - mu) / emu, mu * (emu - 1.0) / (k * emu)


# ---------------------------------------------------------------------------
# Exact small-system critical-set expectations


def count_maps_ge2(p: int, order: int, free: int = 0) -> int:
    """order! [z^order] e^{free z} (e^z - 1 - z)^p: maps of `order` labelled
    chips to p + free columns in which each of the first p gets >= 2 chips.

    Expanding the power (inclusion-exclusion over the columns that get 0 or
    exactly 1 chip) gives, with b = p - a - c,

        sum_{c, a} p!/(a! b! c!) (-1)^{b+c} (a + free)^{order-c} order!/(order-c)!.
    """
    if min(p, order, free) < 0:
        raise ValueError(f"sizes must be >= 0, got p={p}, order={order}, free={free}")
    if 2 * p > order:
        return 0
    total = 0
    for c in range(p + 1):
        q, e = p - c, order - c
        inner = sum((-1) ** (q - a) * math.comb(q, a) * (a + free) ** e for a in range(q + 1))
        total += (-1) ** c * math.comb(p, c) * math.perm(order, c) * inner
    return total


def count_maps_even(nu: int, order: int) -> int:
    """order! [z^order] (cosh z - 1)^nu: maps of `order` labelled chips to nu
    columns that each get a positive even number of chips.

    Expanding (cosh z - 1)^nu with cosh z = (e^z + e^{-z}) / 2 gives

        2^{-nu} sum_j (-1)^{nu-j} C(nu, j) 2^{nu-j} sum_i C(j, i) (2i - j)^order,

    whose sum is divisible by 2^nu.
    """
    if min(nu, order) < 0:
        raise ValueError(f"sizes must be >= 0, got nu={nu}, order={order}")
    if 2 * nu > order:
        return 0
    total = 0
    for j in range(nu + 1):
        inner = sum(math.comb(j, i) * (2 * i - j) ** order for i in range(j + 1))
        total += (-1) ** (nu - j) * math.comb(nu, j) * 2 ** (nu - j) * inner
    return total >> nu


def exact_a(k: int, ell: int, nu: int) -> int:
    """(k ell)! [z^{k ell}] (cosh z - 1)^nu: weight-k row blocks of size ell whose
    nu occupied columns all receive positive even chip counts."""
    order = k * ell
    if order > _EXACT_ORDER_LIMIT:
        raise BudgetExceededError(f"k*ell = {order} exceeds exact budget {_EXACT_ORDER_LIMIT}")
    return count_maps_even(nu, order)


def exact_b(k: int, m: int, ell: int, nu: int, n: int) -> int:
    """(k(m-ell))! [z^{k(m-ell)}] (e^z)^nu f(z)^{n-nu}: complementary blocks with the
    last n-nu columns forced to >= 2 chips."""
    order = k * (m - ell)
    if order > _EXACT_ORDER_LIMIT:
        raise BudgetExceededError(f"k*(m-ell) = {order} exceeds exact budget {_EXACT_ORDER_LIMIT}")
    return count_maps_ge2(n - nu, order, nu)


def exact_EY(k: int, m: int, n: int, ell: int) -> Fraction:
    """Exact expected number of size-ell critical row sets in the chip model:

    C(m, ell) * sum_nu C(n, nu) a(ell, nu) b(m-ell, nu) / |allocations|.
    """
    order = k * m
    if order > _EXACT_ORDER_LIMIT:
        raise BudgetExceededError(f"k*m = {order} exceeds exact budget {_EXACT_ORDER_LIMIT}")
    if not 1 <= ell <= m:
        raise ValueError(f"ell must lie in [1, {m}]")
    total = count_maps_ge2(n, order)
    acc = 0
    for nu in range(1, min(n, (k * ell) // 2) + 1):
        a = exact_a(k, ell, nu)
        if a == 0:
            continue
        acc += math.comb(n, nu) * a * exact_b(k, m, ell, nu, n)
    return Fraction(math.comb(m, ell) * acc, total)


# ---------------------------------------------------------------------------
# Threshold report


def threshold_report(k: int, c: float) -> dict:
    """All scalar threshold quantities for a density point (k, c), as printed
    by `xorsatlab threshold`; mu and the core fractions are None below c_hat."""
    if k < 3:
        raise ValueError("k must be >= 3")
    if not math.isfinite(c):
        raise ValueError(f"c must be finite, got {c}")
    if c * k <= 2:
        raise ValueError("need c > 2/k")
    lam = lambda_of(c * k)
    mu = mu_of(k, c)
    fv, fe = core_sizes(k, c) if mu is not None else (None, None)
    return {
        "k": k,
        "c": c,
        "lambda": lam,
        "gamma": gamma(k, lam),
        "alpha_k": alpha_k(k),
        "c_hat": c_hat(k),
        "mu": mu,
        "c_star": c_star(k),
        "core_frac_vars": fv,
        "core_frac_eqs": fe,
    }


__all__ = [
    "H_k",
    "R",
    "R0",
    "ZetaChoice",
    "alpha_k",
    "bound_EY",
    "c_hat",
    "c_star",
    "core_sizes",
    "count_maps_even",
    "count_maps_ge2",
    "entropy",
    "exact_EY",
    "exact_a",
    "exact_b",
    "f",
    "f_prime",
    "g_k",
    "gamma",
    "h_k_symmetric",
    "lambda_of",
    "mu_of",
    "psi",
    "s_k",
    "threshold_report",
    "var_Z",
    "zeta_choice",
]
