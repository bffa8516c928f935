import dataclasses
import math
import random
from fractions import Fraction

import pytest

from xorsatlab import formulas as F
from xorsatlab.intervals import (
    Interval,
    clamp,
    cosh_gap,
    down,
    entropy_int,
    f_int,
    fprime_int,
    gauss_cosh_gap,
    icosh,
    iconst,
    idecimal,
    iexp,
    iexpm1,
    ilog,
    ixlog_ratio,
    lambda_interval,
    psi_int,
    rate_numerator,
    up,
)


def rand_interval(rnd, lo, hi):
    a, b = sorted((rnd.uniform(lo, hi), rnd.uniform(lo, hi)))
    return Interval(a, b)


def test_interval_basics():
    x = Interval(1.0, 2.0)
    assert x.mid == 1.5 and x.width == 1.0
    assert x.contains(1.5) and not x.contains(2.5)
    with pytest.raises(ValueError):
        Interval(2.0, 1.0)
    with pytest.raises(ZeroDivisionError):
        Interval(1.0, 1.0) / Interval(-1.0, 1.0)
    sq = Interval(-2.0, 1.0).sq()
    assert sq.lo == 0.0 and sq.hi >= 4.0


def test_interval_rejects_nan_ends_and_is_frozen():
    nan = math.nan
    for lo, hi in ((nan, 1.0), (0.0, nan), (nan, nan), (1.0, 0.0), (math.inf, -math.inf)):
        with pytest.raises(ValueError):
            Interval(lo, hi)
    assert Interval(-math.inf, math.inf).contains(0.0)
    x = Interval(1.0, 2.0)
    with pytest.raises(dataclasses.FrozenInstanceError):
        x.lo = 0.0
    with pytest.raises((AttributeError, TypeError)):
        x.extra = 0.0
    assert not hasattr(x, "__dict__")
    assert x == Interval(1.0, 2.0) and x != Interval(1.0, 3.0)
    assert hash(x) == hash(Interval(1.0, 2.0)) == hash((1.0, 2.0))
    assert len({x, Interval(1.0, 2.0), Interval(0.0, 2.0)}) == 2


def test_two_ulp_padding_matches_stepwise_nextafter():
    rnd = random.Random(21)
    specials = [0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, math.inf, -math.inf, 1.7976931348623157e308]
    for x in specials + [rnd.uniform(-1e3, 1e3) for _ in range(2000)]:
        for ulps in (0, 1, 2, 3, 4, 6):
            hi = lo = x
            for _ in range(ulps):
                hi = math.nextafter(hi, math.inf)
                lo = math.nextafter(lo, -math.inf)
            assert math.copysign(1.0, up(x, ulps)) == math.copysign(1.0, hi) and up(x, ulps) == hi
            assert math.copysign(1.0, down(x, ulps)) == math.copysign(1.0, lo) and down(x, ulps) == lo
        assert up(x) == up(x, 2) and down(x) == down(x, 2)
    assert math.isnan(up(math.nan)) and math.isnan(down(math.nan))


def test_clamp_is_domain_intersection():
    assert clamp(Interval(-1e-18, 0.5), 0.0, 1.0) == Interval(0.0, 0.5)
    with pytest.raises(ValueError):
        clamp(Interval(2.0, 3.0), 0.0, 1.0)


def test_arithmetic_enclosure_soundness():
    rnd = random.Random(12)
    for _ in range(20000):
        x = rand_interval(rnd, -5, 5)
        y = rand_interval(rnd, -5, 5)
        px = rnd.uniform(x.lo, x.hi)
        py = rnd.uniform(y.lo, y.hi)
        assert (x + y).contains(px + py)
        assert (x - y).contains(px - py)
        assert (x * y).contains(px * py)
        if y.lo > 0.1 or y.hi < -0.1:
            assert (x / y).contains(px / py)
        assert x.sq().contains(px * px)


def test_elementary_enclosures():
    rnd = random.Random(13)
    for _ in range(5000):
        x = rand_interval(rnd, -4, 4)
        p = rnd.uniform(x.lo, x.hi)
        assert iexp(x).contains(math.exp(p))
        assert iexpm1(x).contains(math.expm1(p))
        assert icosh(x).contains(math.cosh(p))
        assert f_int(x).contains(F.f(p))
        assert fprime_int(x).contains(F.f_prime(p))
        pos = rand_interval(rnd, 0.05, 6)
        q = rnd.uniform(pos.lo, pos.hi)
        assert ilog(pos).contains(math.log(q))
        assert psi_int(pos).contains(F.psi(q))
    with pytest.raises(ValueError):
        ilog(Interval(-1.0, 1.0))
    with pytest.raises(ValueError):
        psi_int(Interval(0.0, 1.0))


def test_entropy_and_xlog_enclosures():
    rnd = random.Random(14)
    for _ in range(4000):
        a = rand_interval(rnd, 0.0, 1.0)
        p = rnd.uniform(a.lo, a.hi)
        assert entropy_int(a).contains(F.entropy(p))
        z = rnd.uniform(0.05, 1.5)
        t = ixlog_ratio(a, z)
        val = 0.0 if p == 0 else p * math.log(p / z)
        assert t.lo <= val <= t.hi
    # maximum at 1/2 and the interior critical point are both honored
    wide = entropy_int(Interval(0.1, 0.9))
    assert wide.contains(math.log(2.0))
    t = ixlog_ratio(Interval(0.01, 0.99), 1.0)
    assert t.lo <= -1.0 / math.e <= t.hi


def test_series_certificates_contain_rational_truth():
    rnd = random.Random(15)
    for _ in range(400):
        x = rnd.uniform(0.0, 1.0)
        xf = Fraction(x)
        truth = sum(2 * xf ** (2 * j) / math.factorial(2 * j) for j in range(2, 40))
        box = cosh_gap(Interval.point(x))
        assert box.lo <= truth <= box.hi
        truth2 = sum((j - 2) * xf**j / math.factorial(j) for j in range(3, 60))
        box2 = rate_numerator(Interval.point(x))
        assert box2.lo <= truth2 <= box2.hi
        x75 = x * 0.75
        xf75 = Fraction(x75)
        truth3 = sum(
            (Fraction(1, 2**j * math.factorial(j)) - Fraction(1, math.factorial(2 * j))) * xf75 ** (2 * j)
            for j in range(2, 40)
        )
        box3 = gauss_cosh_gap(Interval.point(x75))
        assert box3.lo <= truth3 <= box3.hi


def test_series_certificates_nonnegative_from_zero():
    assert cosh_gap(Interval(0.0, 1.0)).lo >= -1e-15
    assert rate_numerator(Interval(0.0, 1.0)).lo >= -1e-15
    assert gauss_cosh_gap(Interval(0.0, 0.75)).lo >= -1e-15
    with pytest.raises(ValueError):
        rate_numerator(Interval(-0.5, 0.5))


def test_direct_branches_match_series_branches():
    for x in (0.9, 0.999, 1.0001, 1.3):
        lo_branch = cosh_gap(Interval.point(min(x, 1.0)))
        hi_branch = icosh(Interval.point(x)) * 2 - 2 - Interval.point(x).sq()
        if x <= 1.0:
            overlap = lo_branch
            assert overlap.lo <= hi_branch.hi and hi_branch.lo <= overlap.hi


def test_constants():
    c = iconst(Fraction(1, 3))
    assert c.lo < 1 / 3 < c.hi or c.lo <= 1 / 3 <= c.hi
    d = idecimal("2.7694")
    assert d.contains(2.7694) and d.width < 1e-14


def test_lambda_interval_brackets_true_roots():
    for d_lo, d_hi in [(2.997, 3.003), (2.5, 2.6), (3.999, 4.001), (7.9, 8.1)]:
        lam = lambda_interval(Interval(d_lo, d_hi))
        assert lam.lo <= F.lambda_of(d_lo) <= F.lambda_of(d_hi) <= lam.hi
        mid = F.lambda_of(0.5 * (d_lo + d_hi))
        assert lam.contains(mid)
    with pytest.raises(ValueError):
        lambda_interval(Interval(1.5, 2.5))
