import decimal
import functools
import hashlib
import json
import math
import operator
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xorsatlab import certify, intervals
from xorsatlab.errors import CertificateFormatError
from xorsatlab.certify import (
    Certificate,
    CoverCell,
    certify_alarge_constants,
    certify_amed,
    certify_claim,
    certify_k3_grid,
    certify_monotonicity,
    check_cover,
    hk_cell_bound,
    interval_s_k,
    replay_certificate,
    _lambda_subranges,
)
from xorsatlab.formulas import H_k, ZetaChoice, _hk_terms, lambda_of, s_k
from xorsatlab.intervals import (
    Interval,
    entropy_int,
    f_int,
    fprime_int,
    ilog,
    ixlog_ratio,
    lambda_interval,
)


class TestIntervalSk:
    def test_point_value_at_right_end(self):
        box = interval_s_k(4, Interval(0.2743, 0.2743))
        assert box.hi < 0.0
        assert abs(box.hi - (-1.49e-5)) < 1e-6
        assert box.lo <= s_k(4, 0.2743) <= box.hi

    def test_split_points_from_two_interval_covers(self):
        assert interval_s_k(5, Interval(0.1840, 0.2291)).hi < -0.005
        assert interval_s_k(5, Interval(0.2291, 0.2743)).hi < -0.005
        assert interval_s_k(6, Interval(0.1666, 0.2204)).hi < -0.03
        assert interval_s_k(6, Interval(0.2204, 0.2743)).hi < -0.03

    def test_bound_dominates_true_sup(self):
        rnd = random.Random(5)
        for _ in range(300):
            a = sorted((rnd.uniform(0.01, 0.5), rnd.uniform(0.01, 0.5)))
            cell = Interval(a[0], a[1])
            bound = interval_s_k(4, cell).hi
            for _ in range(10):
                p = rnd.uniform(cell.lo, cell.hi)
                assert s_k(4, p) <= bound + 1e-15

    def test_domain_guard(self):
        with pytest.raises(ValueError):
            interval_s_k(4, Interval(0.4, 0.6))


class TestAmed:
    def test_k4_negative_below_target(self):
        cert = certify_amed(4)
        assert cert.verified
        assert cert.global_bound < -1e-5
        assert len(cert.cells) <= 200
        assert check_cover(cert.cells, 0.1681, 0.2743)

    @pytest.mark.parametrize("k,target,max_cells", [(5, -0.005, 4), (6, -0.03, 4)])
    def test_k5_k6_few_cells(self, k, target, max_cells):
        cert = certify_amed(k)
        assert cert.verified and cert.global_bound < target
        assert len(cert.cells) <= max_cells

    def test_k7_induction_range(self):
        cert = certify_amed(7, target=-0.1, alpha_range=(1 / 7, 1 / 6))
        assert cert.verified and cert.global_bound < -0.1

    def test_rejects_k3(self):
        with pytest.raises(ValueError):
            certify_amed(3)

    def test_rejects_a_k_beyond_exact_floats(self):
        # -2.0 * k would overflow, and 1 / k would raise OverflowError
        with pytest.raises(ValueError, match="4 <= k <= 2"):
            certify_amed(10**400)
        with pytest.raises(ValueError, match="4 <= k <= 2"):
            certify_amed(2**53 + 1)

    def test_unreachable_target_reports_failure(self):
        cert = certify_amed(4, target=-1.0)
        assert not cert.verified
        assert "failed_at" in cert.details


class TestK3Grid:
    def test_full_default_grid(self):
        cert = certify_k3_grid()
        assert cert.verified
        assert len(cert.cells) == 301
        assert cert.global_bound < -0.002
        assert check_cover(cert.cells, 0.099, 0.400)
        # zeta table is recorded for every cell
        assert all(c.zeta is not None for c in cert.cells)

    def test_published_zeta_certifies_its_cell(self):
        bound = hk_cell_bound(3, (0.300, 0.301), (0.360, 0.667), (0.999, 1.001))
        assert bound < -0.002

    def test_leftmost_cell_certifies(self):
        cert = certify_k3_grid()
        first = min(cert.cells, key=lambda c: c.lo)
        assert abs(first.lo - 0.099) < 1e-12 and first.passes()

    def test_c_range_validation(self):
        with pytest.raises(ValueError):
            certify_k3_grid((0.9, 1.0))
        with pytest.raises(ValueError):
            certify_k3_grid((0.99, 1.011))
        # once died inside lambda_interval, psi^{-1} at c = 0.5
        with pytest.raises(ValueError, match="c_range must lie inside"):
            certify_k3_grid((0.5, 1.5))


class TestHkEnclosures:
    def test_box_and_centered_forms_enclose_true_values(self):
        rnd = random.Random(6)
        k = 3
        for _ in range(60):
            alo = rnd.uniform(0.1, 0.39)
            cell = (alo, alo + 0.001)
            z = (rnd.uniform(0.2, 0.6), rnd.uniform(0.4, 0.8))
            c_range = (0.999, 1.001)
            C = Interval(*c_range)
            LAM = lambda_interval(C * float(k))
            A = Interval(*cell)
            box = _old_hk_box(k, A, z[0], z[1], C, LAM)
            cen = _old_hk_centered(k, A, z[0], z[1], C, LAM)
            for _ in range(8):
                a = rnd.uniform(*cell)
                c = rnd.uniform(*c_range)
                truth = H_k(a, ZetaChoice(*z), c, k)
                assert box.lo - 1e-12 <= truth <= box.hi + 1e-12
                assert cen.lo - 1e-12 <= truth <= cen.hi + 1e-12
            # the centered form should not be wider than the straight box
            assert cen.width <= box.width + 1e-9

    def test_cell_bound_dominates_samples(self):
        rnd = random.Random(7)
        bound = hk_cell_bound(3, (0.34, 0.341), (0.38, 0.64), (0.999, 1.001))
        for _ in range(200):
            a = rnd.uniform(0.34, 0.341)
            c = rnd.uniform(0.999, 1.001)
            assert H_k(a, ZetaChoice(0.38, 0.64), c, 3) <= bound + 1e-12


# Test-local copy of the per-sub-box evaluation that hk_cell_bound replaced:
# every sub-box recomputed all of its alpha and lambda terms.

_ONE = Interval.point(1.0)


def _old_hk_box(k, A, z1, z2, C, LAM):
    B = _ONE - A
    head = C * (entropy_int(A) + (ixlog_ratio(A, z1) + ixlog_ratio(B, z2)) * k)
    s = Interval.point(z2) + Interval.point(z1)
    d = Interval.point(z2) - Interval.point(z1)
    num = f_int(LAM * s) + f_int(LAM * d)
    den = f_int(LAM) * 2
    return head + ilog(num / den)


def _old_hk_dalpha(k, A, z1, z2, C):
    B = _ONE - A
    inner = ilog(B / A) + (ilog(A / Interval.point(z1)) - ilog(B / Interval.point(z2))) * k
    return C * inner


def _old_hk_dc(k, A, z1, z2):
    B = _ONE - A
    return entropy_int(A) + (ixlog_ratio(A, z1) + ixlog_ratio(B, z2)) * k


def _old_hk_dlam(z1, z2, LAM):
    s = Interval.point(z2) + Interval.point(z1)
    d = Interval.point(z2) - Interval.point(z1)
    num = s * fprime_int(LAM * s) + d * fprime_int(LAM * d)
    den = f_int(LAM * s) + f_int(LAM * d)
    return num / den - fprime_int(LAM) / f_int(LAM)


def _old_hk_centered(k, A, z1, z2, C, LAM):
    am, cm, lm = A.mid, C.mid, LAM.mid
    f0 = _old_hk_box(k, Interval.point(am), z1, z2, Interval.point(cm), Interval.point(lm))
    out = f0 + _old_hk_dalpha(k, A, z1, z2, C) * (A - am)
    out = out + _old_hk_dc(k, A, z1, z2) * (C - cm)
    return out + _old_hk_dlam(z1, z2, LAM) * (LAM - lm)


def _old_hk_cell_bound(k, alpha_cell, zeta, c_range):
    """The per-sub-box evaluation over 2 c sub-ranges x 2 alpha sub-boxes."""
    z1, z2 = zeta
    lam_subs = _lambda_subranges(k, c_range)
    alo, ahi = alpha_cell
    aedges = [alo + (ahi - alo) * i / 2 for i in range(3)]
    worst = -math.inf
    for C, LAM in lam_subs:
        for j in range(2):
            A = Interval(aedges[j], aedges[j + 1])
            worst = max(worst, _old_hk_centered(k, A, z1, z2, C, LAM).hi)
    return worst


def _near_optimal_zeta(k, amid, c_mid):
    """The build's lattice descent on the float objective, from the build's start."""
    lam_mid = lambda_of(k * c_mid)

    def objective(z):
        return _hk_terms(amid, z[0] / 1000, z[1] / 1000, c_mid, k, lam_mid)

    z = certify._descend_zeta(objective, (round(amid * 1000), round((1.0 - amid) * 1000)), 1000)
    return z[0] / 1000, z[1] / 1000


class TestSharedTermsEquivalence:
    def test_cell_bound_bit_equal_to_per_sub_box_evaluation(self):
        rnd = random.Random(606)
        for trial in range(200):
            k = (3, 4)[trial % 2]
            c0 = rnd.uniform(0.99, 1.005)
            c_range = (c0, min(1.01, c0 + rnd.uniform(0.0005, 0.005)))
            alo = rnd.uniform(0.05, 0.45)
            cell = (alo, alo + rnd.choice((0.001, 0.0005, 0.004)))
            if trial % 4 < 2:
                zeta = _near_optimal_zeta(k, 0.5 * (cell[0] + cell[1]), 0.5 * (c_range[0] + c_range[1]))
            else:
                zeta = (rnd.uniform(0.02, 0.98), rnd.uniform(0.02, 0.98))
            new = hk_cell_bound(k, cell, zeta, c_range)
            old = _old_hk_cell_bound(k, cell, zeta, c_range)
            assert new == old, (k, cell, zeta, c_range)

    def test_passing_lambda_subranges_gives_the_same_bound(self):
        subs = _lambda_subranges(3, (0.999, 1.001))
        args = (3, (0.300, 0.301), (0.360, 0.667), (0.999, 1.001))
        assert hk_cell_bound(*args, subs) == hk_cell_bound(*args)


class TestAlargeAndMonotone:
    def test_alarge_verifies(self):
        cert = certify_alarge_constants()
        assert cert.verified
        tags = {c.tag for c in cert.cells}
        assert {"R(2.7694,x0)<0.5", "R(3.5,x0)<0.4", "R(2.149,0.2)<=0.495",
                "psi(2.7694)<=3.3992", "psi(3.5)<=4", "phi-decreasing"} <= tags
        ent = [c for c in cert.cells if c.tag == "entropy-bound"]
        chain = [c for c in cert.cells if c.tag == "rate-chain"]
        assert check_cover(ent, 0.0, 1.0)
        assert check_cover(chain, 0.0, 0.4514)
        # the degenerate x=0 cells carry the documented slack targets
        assert ent[0].lo == 0.0 and ent[0].target == 1e-12 and ent[0].bound <= 1e-12
        assert chain[0].lo == 0.0 and chain[0].bound <= 1e-12

    def test_monotone_verifies_with_endpoint_slack(self):
        cert = certify_monotonicity()
        assert cert.verified
        for tag, (lo, hi) in cert.details["ranges"].items():
            cells = [c for c in cert.cells if c.tag == tag]
            assert check_cover(cells, lo, hi)
            head = min(cells, key=lambda c: c.lo)
            assert head.lo == 0.0 and head.target == 1e-15 and head.bound <= 1e-15


class TestCertificateLifecycle:
    @pytest.mark.parametrize("claim,kwargs", [
        ("amed", {"k": 4}),
        ("monotone", {}),
        ("alarge", {}),
        ("k3grid", {}),
    ])
    def test_json_round_trip_and_replay(self, claim, kwargs):
        cert = certify_claim(claim, **kwargs)
        assert cert.verified
        blob = cert.dumps()
        back = Certificate.loads(blob)
        assert back.to_json_dict() == cert.to_json_dict()
        assert replay_certificate(back) is True

    def test_k3grid_replay_evaluates_every_cell_and_brackets_lambda_once(self, monkeypatch):
        cert = certify_k3_grid()
        calls = {"hk_cell_bound": 0, "_lambda_subranges": 0}

        def count(name):
            fn = getattr(certify, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(certify, name, counted)

        count("hk_cell_bound")
        count("_lambda_subranges")
        assert replay_certificate(cert) is True
        assert calls["hk_cell_bound"] == len(cert.cells) == 301
        assert calls["_lambda_subranges"] == 1

    def test_alarge_replay_builds_shared_terms_once(self, monkeypatch):
        cert = certify_alarge_constants()
        calls = {"_alarge_constant_cells": 0, "_phi_chain": 0}

        def count(name):
            fn = getattr(certify, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            monkeypatch.setattr(certify, name, counted)

        count("_alarge_constant_cells")
        count("_phi_chain")
        assert replay_certificate(cert) is True
        assert calls["_alarge_constant_cells"] == 1
        assert calls["_phi_chain"] == sum(c.tag == "rate-chain" for c in cert.cells) == 226

    def test_replay_rejects_tampered_cover(self):
        cert = certify_amed(5)
        # punch a hole in the cover
        cert.cells = cert.cells[1:]
        if not cert.cells:
            pytest.skip("needs at least two cells")
        assert replay_certificate(cert) is False

    def test_replay_rejects_forged_bound(self):
        cert = certify_amed(5)
        cell = cert.cells[0]
        cert.cells[0] = CoverCell(cell.tag, cell.lo, cell.hi, cell.bound, -10.0, cell.strict, cell.zeta)
        assert replay_certificate(cert) is False

    def test_unknown_claim(self):
        with pytest.raises(ValueError):
            certify_claim("everything")


@functools.lru_cache(maxsize=None)
def _built_certificate(claim: str) -> str:
    return certify_claim(claim, k=4 if claim == "amed" else None).dumps()


def _loosen_every_target(cert):
    for cell in cert.cells:
        cell.target, cell.strict = 1e9, False


def _cut_monotone_ranges(cert):
    cert.details["ranges"] = {tag: [0.0, 1.0] for tag in cert.details["ranges"]}
    cert.cells = [c for c in cert.cells if c.lo < 1.0]


def _drop_alarge_constant(cert):
    cert.cells = [c for c in cert.cells if c.tag != "R(3.5,x0)<0.4"]


def _raise_stated_target(cert):
    cert.details["target"] = 1e9
    for cell in cert.cells:
        cell.target = 1e9


def _cut_amed_range(cert):
    cert.details["alpha_range"] = [0.25, 0.2743]
    cert.cells = [c for c in cert.cells if c.hi > 0.25]


def _flatten_zetas(cert):
    # on its own a control: these zetas fail their cells at the stored subdivisions
    for cell in cert.cells:
        cell.zeta = (0.5, 0.5)


def _no_c_subranges(cert):
    # with no c sub-range hk_cell_bound returns -inf for any zeta
    _flatten_zetas(cert)
    cert.details["c_div"] = -1


def _no_alpha_subboxes(cert):
    _flatten_zetas(cert)
    cert.details["a_div"] = -1


def _relabel_k(cert):
    cert.k = 4


def _narrow_c_range(cert):
    cert.c_range = (0.9999, 1.0001)


@pytest.mark.parametrize("claim,doctor", [
    ("amed", None),
    ("k3grid", None),
    ("monotone", None),
    ("alarge", None),
    ("amed", _loosen_every_target),
    ("k3grid", _loosen_every_target),
    ("monotone", _loosen_every_target),
    ("alarge", _loosen_every_target),
    ("monotone", _cut_monotone_ranges),
    ("alarge", _drop_alarge_constant),
    ("amed", _raise_stated_target),
    ("amed", _cut_amed_range),
    ("k3grid", _flatten_zetas),
    ("k3grid", _no_c_subranges),
    ("k3grid", _no_alpha_subboxes),
    ("k3grid", _relabel_k),
    ("k3grid", _narrow_c_range),
], ids=lambda v: getattr(v, "__name__", str(v)))
def test_replay_checks_the_claim_not_the_file(claim, doctor):
    # each doctored copy still has every fresh bound beat its stored target
    # and a gap-free cover of its stored ranges
    cert = Certificate.loads(_built_certificate(claim))
    if doctor is None:
        assert replay_certificate(cert) is True
    else:
        doctor(cert)
        assert replay_certificate(cert) is False


_DROP = object()


@pytest.mark.parametrize("claim,edits,outcome", [
    ("k3grid", [(("c_range",), [0.5, 1.5])], False),
    ("k3grid", [(("c_range",), [-math.inf, math.inf])], False),
    ("k3grid", [(("c_range",), [0.999])], "format"),
    ("amed", [(("details", "target"), _DROP)], False),
    ("amed", [(("details", "alpha_range"), _DROP)], False),
    ("amed", [(("details", "target"), "x")], False),
    ("amed", [(("k",), 10**400)], False),
    ("amed", [(("details",), _DROP)], False),
    ("k3grid", [(("details",), _DROP)], False),
    ("amed", [(("details",), [])], "format"),
    ("amed", [(("cells",), _DROP)], "format"),
    ("amed", [(("cells", 0, "lo"), "0.2")], "format"),
    ("amed", [(("cells", 0, "lo"), math.nan)], False),
    ("amed", [(("cells", 0, "hi"), 0.0)], False),
    ("amed", [(("cells", 0, "lo"), -1.0)], False),
    ("amed", [(("details", "alpha_range"), [-1.0, 0.2743]), (("cells", 0, "lo"), -1.0)], False),
    ("amed", [(("cells", 0, "tag"), _DROP)], "format"),
    ("k3grid", [(("cells", 5, "zeta"), [math.nan, 0.5])], False),
    ("k3grid", [(("cells", 5, "zeta"), [0, 0.5])], False),
    ("k3grid", [(("cells", 5, "zeta"), [-0.1, 0.5])], False),
    ("k3grid", [(("cells", 5, "zeta"), [1e308, 0.5])], False),
    ("k3grid", [(("cells", 5, "zeta"), [1e-300, 0.5])], False),
    ("k3grid", [(("cells", 5, "zeta"), [0.3, 0.5, 0.2])], "format"),
    ("k3grid", [(("cells", 5, "zeta"), None)], False),
    ("k3grid", [(("details", "alpha_range"), "ab")], False),
    ("k3grid", [(("details", "alpha_range"), [5e-324, 0.4]), (("cells", 0, "lo"), 5e-324)], False),
    ("alarge", [(("cells", -1, "lo"), 1e300)], False),
    ("alarge", [(("cells", 7, "hi"), 0.9999999999999999)], False),  # the x = 0 entropy cell
    ("amed", [(("claim_id",), [5])], "format"),
    ("monotone", [(("extra",), 1)], "format"),
])
def test_replay_never_raises(claim, edits, outcome):
    d = json.loads(_built_certificate(claim))
    for (*parents, last), value in edits:
        holder = functools.reduce(operator.getitem, parents, d)
        if value is _DROP:
            del holder[last]
        else:
            holder[last] = value
    try:
        cert = Certificate.loads(json.dumps(d))
    except CertificateFormatError:
        assert outcome == "format"
        return
    assert replay_certificate(cert) is outcome


# a third each: any float (NaN and inf too), a pair of floats, anything else JSON holds
_odd_values = st.one_of(
    st.floats(),
    st.lists(st.floats(), min_size=2, max_size=2),
    st.none()
    | st.booleans()
    | st.text(max_size=2)
    | st.integers(-5, 10)
    | st.just(10**400)
    | st.lists(st.floats(), max_size=3)
    | st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)


@st.composite
def doctored_certificate_json(draw):
    """A built certificate with one to three keys dropped, retyped, or their (lo, hi) pair inverted or widened."""
    d = json.loads(_built_certificate(draw(st.sampled_from(("amed", "k3grid", "alarge", "monotone")))))
    for _ in range(draw(st.integers(1, 3))):
        cells = d["cells"] if isinstance(d.get("cells"), list) else []
        holders = [d] + [h for h in [d.get("details"), *cells] if isinstance(h, dict)]
        holder = draw(st.sampled_from(holders))
        key = draw(st.sampled_from(sorted(holder) + ["target", "alpha_range", "zeta", "extra"]))
        op = draw(st.sampled_from(["drop", "set", "invert", "widen"]))
        pair = ("lo", "hi") if "lo" in holder and "hi" in holder else None
        if op == "drop":
            holder.pop(key, None)
        elif op == "set" or pair is None:
            holder[key] = draw(_odd_values)
        elif op == "invert":
            holder["lo"], holder["hi"] = holder["hi"], holder["lo"]
        elif all(isinstance(holder[end], float) for end in pair):
            width = draw(st.floats(0.0, math.inf))
            holder["lo"], holder["hi"] = holder["lo"] - width, holder["hi"] + width
    return json.dumps(d)


class TestCertificateFormatFuzz:
    """Any doctored certificate either replays to a bool or fails to load with CertificateFormatError."""

    @settings(max_examples=200, deadline=None)
    @given(doctored_certificate_json())
    def test_replay_is_total(self, text):
        try:
            cert = Certificate.loads(text)
        except CertificateFormatError:
            return
        assert isinstance(replay_certificate(cert), bool)


def test_dumps_loads_dumps_byte_identical():
    unverified = [certify_k3_grid(target=-0.005), certify_amed(4, target=-1.0)]
    assert "failed_cells" in unverified[0].details and {"failed_at", "cover_gap"} <= set(unverified[1].details)
    for text in [_built_certificate(c) for c in ("amed", "k3grid", "alarge", "monotone")] + [c.dumps() for c in unverified]:
        assert Certificate.loads(text).dumps() == text


def test_loads_refuses_non_json():
    with pytest.raises(CertificateFormatError, match="not JSON"):
        Certificate.loads('{"claim_id": "amed"')


def test_replay_accepts_a_stricter_target():
    cert = certify_amed(4, target=-1.2e-5)
    assert cert.verified
    assert replay_certificate(Certificate.loads(cert.dumps())) is True


# sha256 of the concatenated dumps() of amed (k=4), k3grid (target -0.002),
# alarge and monotone, the order perfbench's certify_all hashes them in
CERTIFICATE_SHA256 = "63d8e635551e4090b459d402a8c87fb8c62d3708757867f67f8fdefc3143589f"


def test_certificate_bytes_pinned():
    text = "".join(_built_certificate(claim) for claim in ("amed", "k3grid", "alarge", "monotone"))
    assert hashlib.sha256(text.encode()).hexdigest() == CERTIFICATE_SHA256


_LIBM = ("exp", "log", "expm1", "cosh")
_DIGITS60 = decimal.Context(prec=60)


class _RecordingMath:
    """`math` with exp, log, expm1 and cosh recorded as (name, argument,
    result) in `calls`, each result moved `ulps` ulps up."""

    def __init__(self, ulps: int = 0):
        self.calls = []
        for name in _LIBM:
            setattr(self, name, functools.partial(self._record, name, getattr(math, name), ulps))

    def _record(self, name, fn, ulps, x):
        r = fn(x)
        for _ in range(ulps):
            r = math.nextafter(r, math.inf)
        self.calls.append((name, x, r))
        return r

    def __getattr__(self, name):
        return getattr(math, name)


def _beyond_one_ulp(name: str, x: float, r: float) -> bool:
    """Whether libm's `name`(x) = r lies more than 1 ulp from the value that
    decimal, whose exp and ln are correctly rounded, gives at 60 digits."""
    d = decimal.Decimal(x)
    exact = {
        "exp": lambda: d.exp(_DIGITS60),
        "log": lambda: d.ln(_DIGITS60),
        "expm1": lambda: _DIGITS60.subtract(d.exp(_DIGITS60), 1),  # keeps 20+ digits for |x| > 1e-40
        "cosh": lambda: _DIGITS60.divide(d.exp(_DIGITS60) + (-d).exp(_DIGITS60), 2),
    }[name]()
    return abs(decimal.Decimal(r) - exact) > decimal.Decimal(math.ulp(float(exact)))


@pytest.fixture(scope="module")
def pinned_certificates():
    texts = [_built_certificate(claim) for claim in ("amed", "k3grid", "alarge", "monotone")]
    assert hashlib.sha256("".join(texts).encode()).hexdigest() == CERTIFICATE_SHA256
    return [Certificate.loads(text) for text in texts]


def _replay_recording(monkeypatch, certificates, ulps):
    proxy = _RecordingMath(ulps)
    monkeypatch.setattr(intervals, "math", proxy)
    verdicts = [replay_certificate(cert) for cert in certificates]
    monkeypatch.undo()
    return verdicts, proxy.calls


def test_libm_within_one_ulp_on_the_certificates(monkeypatch, pinned_certificates):
    # intervals pads every libm result by 2 ulps, which is sound only if
    # exp, log, expm1 and cosh are within 1 ulp at the arguments the
    # certificates reach; check each distinct one against decimal
    verdicts, calls = _replay_recording(monkeypatch, pinned_certificates, 0)
    assert verdicts == [True] * 4
    assert {name for name, _, _ in calls} == set(_LIBM)
    assert [call for call in set(calls) if _beyond_one_ulp(*call)] == []


def test_libm_check_refuses_a_libm_two_ulps_off(monkeypatch, pinned_certificates):
    _, calls = _replay_recording(monkeypatch, pinned_certificates, 2)
    for name in _LIBM:
        first = [call for call in calls if call[0] == name][:20]
        assert first and all(_beyond_one_ulp(*call) for call in first)


def test_check_cover_edge_cases():
    cells = [CoverCell("t", 0.0, 0.5, -1, 0), CoverCell("t", 0.5, 1.0, -1, 0)]
    assert check_cover(cells, 0.0, 1.0)
    assert not check_cover(cells, 0.0, 1.1)
    assert not check_cover([cells[1]], 0.0, 1.0)
    gap = [CoverCell("t", 0.0, 0.4, -1, 0), CoverCell("t", 0.5, 1.0, -1, 0)]
    assert not check_cover(gap, 0.0, 1.0)
    assert not check_cover([], 0.0, 1.0)


def test_k7_reduction_constants():
    # the k >= 7 range reduces to [1/k, 1/6] via these two numeric facts
    from xorsatlab.formulas import entropy
    from xorsatlab.intervals import _H_point, iexp, ilog

    assert entropy(1 / 6) < 0.451
    assert math.log(0.5 + 0.5 * math.exp(-2.0)) < -0.566
    assert _H_point(1 / 6).hi < 0.451
    assert ilog((iexp(Interval.point(-2.0)) + 1) * Interval.point(0.5)).hi < -0.566
