import copy
import dataclasses
import hashlib
import math
import pickle
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
    _f_point,
    _H_point,
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


def test_interval_value_semantics():
    x = Interval(1.0, 2.0)
    for twin in (copy.copy(x), copy.deepcopy(x), pickle.loads(pickle.dumps(x))):
        assert type(twin) is Interval and twin == x and hash(twin) == hash(x)
    assert repr(x) == "Interval(lo=1.0, hi=2.0)"
    assert x != (1.0, 2.0)


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


# -- the inline-rounded operations against the down/up formulas they replace --


def _bits(x: Interval) -> tuple[str, str]:
    return x.lo.hex(), x.hi.hex()  # tells -0.0 from 0.0


def _outcome(fn, *args):
    try:
        return _bits(fn(*args))
    except (ValueError, ZeroDivisionError, OverflowError) as exc:
        return type(exc)


def _ref_operand(o) -> Interval:
    return o if isinstance(o, Interval) else Interval(float(o), float(o))


def _ref_add(x, y):
    y = _ref_operand(y)
    return Interval(down(x.lo + y.lo), up(x.hi + y.hi))


def _ref_sub(x, y):
    y = _ref_operand(y)
    return Interval(down(x.lo - y.hi), up(x.hi - y.lo))


def _ref_mul(x, y):
    y = _ref_operand(y)
    products = (x.lo * y.lo, x.lo * y.hi, x.hi * y.lo, x.hi * y.hi)
    return Interval(down(min(products)), up(max(products)))


def _ref_div(x, y):
    y = _ref_operand(y)
    if y.lo <= 0.0 <= y.hi:
        raise ZeroDivisionError
    quotients = (x.lo / y.lo, x.lo / y.hi, x.hi / y.lo, x.hi / y.hi)
    return Interval(down(min(quotients)), up(max(quotients)))


def _ref_sq(x):
    if x.lo >= 0.0:
        return Interval(down(x.lo * x.lo), up(x.hi * x.hi))
    if x.hi <= 0.0:
        return Interval(down(x.hi * x.hi), up(x.lo * x.lo))
    m = max(-x.lo, x.hi)
    return Interval(0.0, up(m * m))


def _ref_ilog(x):
    if x.lo <= 0.0:
        raise ValueError
    return Interval(down(math.log(x.lo)), up(math.log(x.hi)))


def _ref_iexpm1(x):
    return Interval(max(down(math.expm1(x.lo)), -1.0), up(math.expm1(x.hi)))


_BIG = 1.7976931348623157e308
_SPECIAL_ENDS = [0.0, -0.0, math.inf, -math.inf, 5e-324, -5e-324, _BIG, -_BIG, 1e200, -1e200, 1e-200, 1.0, -1.0]


def _operands(seed: int, count: int) -> list[Interval]:
    """Random intervals plus every ordered pair of special ends (products overflow, 0 * inf is NaN)."""
    rnd = random.Random(seed)
    out = [Interval(a, b) for a in _SPECIAL_ENDS for b in _SPECIAL_ENDS if a <= b]
    for _ in range(count):
        scale = 10.0 ** rnd.choice((-300, -5, 0, 5, 300))
        a, b = sorted((rnd.uniform(-1, 1) * scale, rnd.uniform(-1, 1) * scale))
        out.append(Interval(a, a) if rnd.random() < 0.1 else Interval(a, b))
    return out


def test_inline_rounding_matches_down_up_formulas():
    rnd = random.Random(19)
    xs = _operands(19, 3000)
    ys = xs[:]
    rnd.shuffle(ys)
    plains = [2, -3, 0, 0.5, -0.0, 5e-324, _BIG, math.inf, -math.inf]
    for x, y in zip(xs, ys):
        for o in (y, rnd.choice(plains), rnd.uniform(-10, 10)):
            assert _outcome(lambda a, b: a + b, x, o) == _outcome(_ref_add, x, o)
            assert _outcome(lambda a, b: b + a, x, o) == _outcome(_ref_add, x, o)
            assert _outcome(lambda a, b: a - b, x, o) == _outcome(_ref_sub, x, o)
            assert _outcome(lambda a, b: b - a, x, o) == _outcome(_ref_sub, _ref_operand(o), x)
            assert _outcome(lambda a, b: a * b, x, o) == _outcome(_ref_mul, x, o)
            assert _outcome(lambda a, b: b * a, x, o) == _outcome(_ref_mul, x, o)
            assert _outcome(lambda a, b: a / b, x, o) == _outcome(_ref_div, x, o)
            assert _outcome(lambda a, b: b / a, x, o) == _outcome(_ref_div, _ref_operand(o), x)
        assert _outcome(Interval.sq, x) == _outcome(_ref_sq, x)
        assert _outcome(ilog, x) == _outcome(_ref_ilog, x)
        assert _outcome(iexpm1, x) == _outcome(_ref_iexpm1, x)
    # a 0 * inf product is NaN and min/max resolve it by position, as before
    assert _bits(Interval(0.0, 1.0) * Interval(1.0, math.inf)) == _bits(_ref_mul(Interval(0.0, 1.0), Interval(1.0, math.inf)))
    for divisor in (Interval(-1.0, 1.0), Interval(0.0, 1.0), Interval(-1.0, -0.0), Interval(-0.0, 0.0), 0, 0.0):
        with pytest.raises(ZeroDivisionError):
            Interval(1.0, 2.0) / divisor
    with pytest.raises(ZeroDivisionError):
        1.0 / Interval(-0.0, 2.0)


def _ref_entropy_int(a):
    ends = (_H_point(a.lo), _H_point(a.hi))
    lo = min(e.lo for e in ends)
    hi = max(e.hi for e in ends)
    if a.lo < 0.5 < a.hi:
        hi = max(hi, up(math.log(2.0)))
    return Interval(max(lo, 0.0), hi)


def _ref_ixlog_ratio(a, z):
    def t_point(x):
        if x == 0.0:
            return Interval.point(0.0)
        X = Interval.point(x)
        return X * ilog(X / Interval.point(z))

    ends = (t_point(a.lo), t_point(a.hi))
    lo = min(e.lo for e in ends)
    hi = max(e.hi for e in ends)
    if a.lo < z / math.e < a.hi:
        lo = min(lo, down(-z / math.e, 4))
    return Interval(lo, hi)


def _ref_f_int(x):
    if x.lo >= 0.0:
        return Interval(max(_f_point(x.lo).lo, 0.0), _f_point(x.hi).hi)
    if x.hi <= 0.0:
        return Interval(max(_f_point(x.hi).lo, 0.0), _f_point(x.lo).hi)
    return Interval(0.0, max(_f_point(x.lo).hi, _f_point(x.hi).hi))


def test_point_intervals_match_two_end_evaluation():
    rnd = random.Random(20)
    units = [0.0, -0.0, 1.0, 0.5, 5e-324, 1.0 - 2**-53] + [rnd.random() for _ in range(1000)]
    reals = [0.0, -0.0, 0.25, -0.25, 5e-324, 700.0] + [rnd.uniform(-8, 8) for _ in range(1000)]
    for a in units:
        z = rnd.uniform(0.01, 2.0)
        one_ulp = Interval(a, min(math.nextafter(a, 1.0), 1.0))
        for A in (Interval.point(a), one_ulp, Interval(min(a, 0.5), max(a, 0.5))):
            assert _outcome(entropy_int, A) == _outcome(_ref_entropy_int, A)
            assert _outcome(ixlog_ratio, A, z) == _outcome(_ref_ixlog_ratio, A, z)
    for x in reals:
        one_ulp = Interval(x, math.nextafter(x, math.inf))
        for X in (Interval.point(x), one_ulp, Interval(min(x, 0.1), max(x, 0.1))):
            assert _outcome(f_int, X) == _outcome(_ref_f_int, X)


def test_root_and_series_numerics_pinned():
    # every float the roots, the bracket check and the series enclosures return
    # on a fixed grid; the digest was taken before these routines were merged
    # into one bisection, one series helper and one bracket loop
    rnd = random.Random(25)
    out = []
    ds = [2.0001, 2.001, 2.01, 2.1] + [2.0 + 0.25 * i for i in range(1, 193)]
    out += [F.lambda_of(d) for d in ds]
    cs = [0.5 + 0.05 * i for i in range(91)]
    for k in range(3, 8):
        out += [F.c_hat(k), F.c_star(k)] + [F.mu_of(k, c) for c in cs]
    for d in ds[::4]:
        for w in (0.0, 1e-9, 1e-3, 0.25):
            lam = lambda_interval(Interval(d, d + w))
            out += [lam.lo, lam.hi]
    xs = [5e-324, 1e-300, 1e-10, 1e-4, 0.01, 0.1, 0.2, 0.24, 0.25, math.nextafter(0.25, 1.0), 0.3, 1.0, 5.0, 30.0]
    xs += [rnd.uniform(-1.0, 1.0) for _ in range(200)]
    for x in xs + [-x for x in xs]:
        box = _f_point(x)
        out += [box.lo, box.hi]
    cells = [(0.0, 0.0), (0.0, 0.75), (0.0, 1.0), (0.75, 0.75), (1.0, 1.0), (0.5, 1.5), (1.0, 2.0), (3.0, 3.0)]
    for _ in range(100):
        a, b = sorted((rnd.uniform(0.0, 2.5), rnd.uniform(0.0, 2.5)))
        cells += [(a, a), (a, b), (a, min(b, a + 1e-3))]
    for a, b in cells:
        for fn, X in ((cosh_gap, Interval(a, b)), (cosh_gap, Interval(-b, a)), (rate_numerator, Interval(a, b)),
                      (gauss_cosh_gap, Interval(a, b)), (gauss_cosh_gap, Interval(-b, -a))):
            box = fn(X)
            out += [box.lo, box.hi]
    digest = hashlib.sha256(" ".join(map(repr, out)).encode()).hexdigest()
    assert digest == "418aa6a0db234bd541956672091600f24756d41c151254e4dd6379c5b1d8b098"
