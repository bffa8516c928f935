"""Outward-rounded interval arithmetic for machine-checkable inequalities.

Every operation returns an enclosure of the exact real image.  Rounding is
handled portably: results are computed in double precision and inflated
outward by 2 ulps per elementary operation (libm's exp/log/cosh are within
1 ulp on this platform, IEEE +-*/ within half an ulp, so 2 ulps is a sound
cushion).  This costs a negligible amount of width at the scales certified
here and avoids non-portable FPU rounding-mode switches.

Beyond the arithmetic core there are enclosures for the special functions
the certificates need: f(x) = e^x - 1 - x (series-protected near 0, where
the direct expression cancels catastrophically), psi(x) = x f'(x)/f(x),
the entropy function, x ln(x/z), and positive-coefficient power series for
the three sign certificates

    e^x + e^{-x} - 2 - x^2   = sum_{j>=2} 2 x^{2j} / (2j)!
    (s-2) e^s + s + 2        = sum_{j>=3} (j-2) s^j / j!
    e^{x^2/2} - cosh x       = sum_{j>=2} x^{2j} (1/(2^j j!) - 1/(2j)!)

whose series forms make the >= 0 lower bound exact at the x = 0 equality
point (a direct interval evaluation can never certify it).  All four series
(f's and these three) are summed by one helper, `_series`, from
coefficient enclosures built once at import.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from xorsatlab.formulas import _F_CUT, _F_TERMS, lambda_of

_INF = math.inf
_NEXT = math.nextafter


def up(x: float, ulps: int = 2) -> float:
    if ulps == 2:
        return _NEXT(_NEXT(x, _INF), _INF)
    for _ in range(ulps):
        x = _NEXT(x, _INF)
    return x


def down(x: float, ulps: int = 2) -> float:
    if ulps == 2:
        return _NEXT(_NEXT(x, -_INF), -_INF)
    for _ in range(ulps):
        x = _NEXT(x, -_INF)
    return x


@dataclass(frozen=True, slots=True, init=False)
class Interval:
    lo: float
    hi: float

    def __init__(self, lo: float, hi: float) -> None:
        # false for inverted ends and for a NaN at either end
        if not lo <= hi:
            raise ValueError(f"invalid interval [{lo}, {hi}]")
        # the dataclass's frozen __setattr__ refuses; the slot descriptors write past it
        _set_lo(self, lo)
        _set_hi(self, hi)

    # -- constructors -------------------------------------------------------

    @staticmethod
    def point(x: float) -> "Interval":
        return Interval(x, x)

    # -- queries ------------------------------------------------------------

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def mid(self) -> float:
        return 0.5 * (self.lo + self.hi)

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    # -- arithmetic (a plain number operand is a point interval) -------------
    # Each end is rounded outward by 2 ulps exactly as down()/up() do, written
    # inline because a certify round makes a few hundred thousand of these calls.

    def __add__(self, other) -> "Interval":
        if isinstance(other, Interval):
            olo, ohi = other.lo, other.hi
        else:
            olo = ohi = float(other)
        return Interval(_NEXT(_NEXT(self.lo + olo, -_INF), -_INF), _NEXT(_NEXT(self.hi + ohi, _INF), _INF))

    __radd__ = __add__

    def __neg__(self) -> "Interval":
        return Interval(-self.hi, -self.lo)

    def __sub__(self, other) -> "Interval":
        if isinstance(other, Interval):
            olo, ohi = other.lo, other.hi
        else:
            olo = ohi = float(other)
        return Interval(_NEXT(_NEXT(self.lo - ohi, -_INF), -_INF), _NEXT(_NEXT(self.hi - olo, _INF), _INF))

    def __rsub__(self, other) -> "Interval":
        return Interval.point(float(other)) - self

    def __mul__(self, other) -> "Interval":
        lo, hi = self.lo, self.hi
        if isinstance(other, Interval):
            olo, ohi = other.lo, other.hi
        else:
            olo = ohi = float(other)
        a, b, c, d = lo * olo, lo * ohi, hi * olo, hi * ohi
        # min/max in this order: a NaN product (0 * inf) resolves as it always has
        return Interval(_NEXT(_NEXT(min(a, b, c, d), -_INF), -_INF), _NEXT(_NEXT(max(a, b, c, d), _INF), _INF))

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Interval":
        if isinstance(other, Interval):
            olo, ohi = other.lo, other.hi
        else:
            olo = ohi = float(other)
        if olo <= 0.0 <= ohi:
            raise ZeroDivisionError(f"divisor interval [{olo}, {ohi}] contains zero")
        lo, hi = self.lo, self.hi
        a, b, c, d = lo / olo, lo / ohi, hi / olo, hi / ohi
        return Interval(_NEXT(_NEXT(min(a, b, c, d), -_INF), -_INF), _NEXT(_NEXT(max(a, b, c, d), _INF), _INF))

    def __rtruediv__(self, other) -> "Interval":
        return Interval.point(float(other)) / self

    def sq(self) -> "Interval":
        """x^2 as an even power (tighter than self * self when 0 is inside)."""
        lo, hi = self.lo, self.hi
        if lo >= 0.0:
            return Interval(_NEXT(_NEXT(lo * lo, -_INF), -_INF), _NEXT(_NEXT(hi * hi, _INF), _INF))
        if hi <= 0.0:
            return Interval(_NEXT(_NEXT(hi * hi, -_INF), -_INF), _NEXT(_NEXT(lo * lo, _INF), _INF))
        m = max(-lo, hi)
        return Interval(0.0, _NEXT(_NEXT(m * m, _INF), _INF))


_set_lo = Interval.lo.__set__
_set_hi = Interval.hi.__set__


def clamp(x: Interval, lo: float, hi: float) -> Interval:
    """Intersect an enclosure with [lo, hi].

    Sound only when the enclosed true values are known to lie in [lo, hi]
    (outward rounding may have pushed the enclosure past a domain edge).
    """
    if x.hi < lo or x.lo > hi:
        raise ValueError("enclosure does not meet the stated domain")
    return Interval(max(x.lo, lo), min(x.hi, hi))


def iconst(fr: Fraction) -> Interval:
    """Enclosure of an exact rational (float() of a Fraction rounds to nearest)."""
    x = float(fr)
    return Interval(down(x, 1), up(x, 1))


def idecimal(text: str) -> Interval:
    """Enclosure of a decimal literal, e.g. idecimal("2.7694")."""
    return iconst(Fraction(text))


# ---------------------------------------------------------------------------
# Monotone elementary functions


def iexp(x: Interval) -> Interval:
    return Interval(max(down(math.exp(x.lo)), 0.0), up(math.exp(x.hi)))


def iexpm1(x: Interval) -> Interval:
    lo = _NEXT(_NEXT(math.expm1(x.lo), -_INF), -_INF)
    return Interval(max(lo, -1.0), _NEXT(_NEXT(math.expm1(x.hi), _INF), _INF))


def ilog(x: Interval) -> Interval:
    if x.lo <= 0.0:
        raise ValueError(f"log needs a positive interval, got [{x.lo}, {x.hi}]")
    return Interval(_NEXT(_NEXT(math.log(x.lo), -_INF), -_INF), _NEXT(_NEXT(math.log(x.hi), _INF), _INF))


def icosh(x: Interval) -> Interval:
    a, b = abs(x.lo), abs(x.hi)
    big, small = max(a, b), min(a, b)
    lo = 1.0 if x.lo <= 0.0 <= x.hi else down(math.cosh(small))
    return Interval(max(lo, 1.0), up(math.cosh(big)))


# ---------------------------------------------------------------------------
# Power series


def _series(power: Interval, step: Interval, coeffs: tuple[Interval, ...]) -> Interval:
    """sum_i coeffs[i] * power * step^i, added in order; the caller adds its truncation tail."""
    acc = Interval.point(0.0)
    for c in coeffs:
        acc = acc + power * c
        power = power * step
    return acc


# 1/j! for j = 2.._F_TERMS
_F_SERIES = tuple(iconst(Fraction(1, math.factorial(j))) for j in range(2, _F_TERMS + 1))
# (s-2) e^s + s + 2: (j-2)/j! for j = 3..16
_RATE_SERIES = tuple(iconst(Fraction(j - 2, math.factorial(j))) for j in range(3, 17))
# e^x + e^{-x} - 2 - x^2: coefficients of u^j (u = x^2) are 2/(2j)!, j = 2..12
_COSH_GAP_SERIES = tuple(iconst(Fraction(2, math.factorial(2 * j))) for j in range(2, 13))
# e^{x^2/2} - cosh x: coefficients of u^j are 1/(2^j j!) - 1/(2j)!, j = 2..12
_GAUSS_GAP_SERIES = tuple(
    iconst(Fraction(1, 2**j * math.factorial(j)) - Fraction(1, math.factorial(2 * j))) for j in range(2, 13)
)


# ---------------------------------------------------------------------------
# f(x) = e^x - 1 - x and psi


def _f_point(x: float) -> Interval:
    """Tight enclosure of f at one float."""
    if x == 0.0:
        return Interval.point(0.0)
    if abs(x) <= _F_CUT:
        X = Interval.point(x)
        acc = _series(X * X, X, _F_SERIES)
        tail = up(abs(x) ** (_F_TERMS + 1) / math.factorial(_F_TERMS + 1) * 1.1, 4)
        return acc + Interval(-tail, tail)
    xi = Interval.point(x)
    return iexpm1(xi) - xi


def f_int(x: Interval) -> Interval:
    """Enclosure of f over an interval; f decreases on (-inf,0], increases on [0,inf), f(0)=0."""
    f_lo = _f_point(x.lo)
    f_hi = f_lo if x.hi == x.lo else _f_point(x.hi)  # a point interval has one end
    if x.lo >= 0.0:
        return Interval(max(f_lo.lo, 0.0), f_hi.hi)
    if x.hi <= 0.0:
        return Interval(max(f_hi.lo, 0.0), f_lo.hi)
    return Interval(0.0, max(f_lo.hi, f_hi.hi))


def fprime_int(x: Interval) -> Interval:
    return iexpm1(x)


def psi_int(x: Interval) -> Interval:
    """x f'(x)/f(x) by direct quotient; meant for intervals well away from 0."""
    if x.lo <= 0.0:
        raise ValueError("psi_int needs a strictly positive interval")
    return x * fprime_int(x) / f_int(x)


def lambda_interval(d: Interval) -> Interval:
    """Verified enclosure of psi^{-1} over d (componentwise, psi increasing).

    Floating-point roots from `lambda_of` are pushed outward until interval
    psi-evaluations confirm bracketing.
    """
    if d.lo <= 2.0:
        raise ValueError("psi^{-1} enclosure needs d > 2")
    ends = []
    for side, target, sign in (("lower", d.lo, -1.0), ("upper", d.hi, 1.0)):
        guess = lambda_of(target)
        margin = 1e-11
        while True:
            end = guess + sign * margin
            p = psi_int(Interval.point(end))
            # psi increases: the whole enclosure must lie on the outer side of target
            if (p.hi <= target) if sign < 0 else (p.lo >= target):
                break
            margin *= 8.0
            if margin > 1e-3:
                raise RuntimeError(f"could not verify {side} lambda bracket")
        ends.append(end)
    return Interval(*ends)


# ---------------------------------------------------------------------------
# Entropy and x ln(x/z)


def _H_point(a: float) -> Interval:
    if a < 0.0 or a > 1.0:
        raise ValueError("entropy argument must lie in [0, 1]")
    if a == 0.0 or a == 1.0:
        return Interval.point(0.0)
    A = Interval.point(a)
    B = Interval.point(1.0) - A
    return -(A * ilog(A) + B * ilog(B))


def entropy_int(a: Interval) -> Interval:
    """Range of H over a sub-interval of [0, 1] (max ln 2 at 1/2, monotone on each side)."""
    if a.lo < 0.0 or a.hi > 1.0:
        raise ValueError("entropy interval must lie inside [0, 1]")
    h_lo = _H_point(a.lo)
    h_hi = h_lo if a.hi == a.lo else _H_point(a.hi)  # a point interval has one end
    lo = min(h_lo.lo, h_hi.lo)
    hi = max(h_lo.hi, h_hi.hi)
    if a.lo < 0.5 < a.hi:
        hi = max(hi, up(math.log(2.0)))
    return Interval(max(lo, 0.0), hi)


def ixlog_ratio(a: Interval, z: float) -> Interval:
    """Range of t(x) = x ln(x/z) over a >= 0 (minimum -z/e at x = z/e, t(0) = 0)."""
    if a.lo < 0.0:
        raise ValueError("x ln(x/z) enclosure needs x >= 0")
    if z <= 0.0:
        raise ValueError("z must be positive")

    def t_point(x: float) -> Interval:
        if x == 0.0:
            return Interval.point(0.0)
        X = Interval.point(x)
        return X * ilog(X / Interval.point(z))

    t_lo = t_point(a.lo)
    t_hi = t_lo if a.hi == a.lo else t_point(a.hi)  # a point interval has one end
    lo = min(t_lo.lo, t_hi.lo)
    hi = max(t_lo.hi, t_hi.hi)
    crit = z / math.e
    if a.lo < crit < a.hi:
        lo = min(lo, down(-z / math.e, 4))
    return Interval(lo, hi)


# ---------------------------------------------------------------------------
# Positive-coefficient series for the sign certificates


def _positive_even_series(x: Interval, coeffs: tuple[Interval, ...], tail_scale: Fraction) -> Interval:
    """sum of c_j u^j over j = 2, 3, ... (u = x^2, every c_j >= 0), plus a [0, tail] remainder.

    Sound for |x| <= 1 when tail_scale bounds the first omitted coefficient
    times a geometric safety factor; the lower endpoint never dips below the
    rounded-down partial sum, which is what certifies >= 0 at u = 0.
    """
    u = x.sq()
    # 1 * u * u, not u * u: the first product's outward rounding is part of
    # the enclosures every pinned certificate was built from
    acc = _series(Interval.point(1.0) * u * u, u, coeffs)
    tail_hi = up(float(tail_scale) * u.hi ** (len(coeffs) + 2), 6)
    return acc + Interval(0.0, tail_hi)


def cosh_gap(x: Interval) -> Interval:
    """e^x + e^{-x} - 2 - x^2 (the psi' numerator times e^{-x}); >= 0 on the reals."""
    if max(abs(x.lo), abs(x.hi)) <= 1.0:
        return _positive_even_series(x, _COSH_GAP_SERIES, Fraction(2, math.factorial(28)) * 2)
    return icosh(x) * 2 - 2 - x.sq()


def rate_numerator(s: Interval) -> Interval:
    """(s-2) e^s + s + 2 = sum_{j>=3} (j-2) s^j / j!; >= 0 for s >= 0."""
    if s.lo < 0.0:
        raise ValueError("rate_numerator is certified for s >= 0 only")
    if s.hi <= 1.0:
        acc = _series(s * s * s, s, _RATE_SERIES)
        tail_hi = up(float(Fraction(16, math.factorial(17))) * s.hi**17 * 2.0, 6)
        return acc + Interval(0.0, tail_hi)
    return (s - 2) * iexp(s) + s + 2


def gauss_cosh_gap(x: Interval) -> Interval:
    """e^{x^2/2} - cosh x; >= 0 on the reals."""
    if max(abs(x.lo), abs(x.hi)) <= 0.75:
        first_omitted = Fraction(1, 2**13 * math.factorial(13)) - Fraction(1, math.factorial(26))
        return _positive_even_series(x, _GAUSS_GAP_SERIES, first_omitted * 2)
    half_sq = x.sq() * 0.5
    return iexp(half_sq) - icosh(x)


__all__ = [
    "Interval",
    "clamp",
    "cosh_gap",
    "down",
    "entropy_int",
    "f_int",
    "fprime_int",
    "gauss_cosh_gap",
    "icosh",
    "iconst",
    "idecimal",
    "iexp",
    "iexpm1",
    "ilog",
    "ixlog_ratio",
    "lambda_interval",
    "psi_int",
    "rate_numerator",
    "up",
]
