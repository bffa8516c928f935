"""Machine-checkable negativity certificates for the rate function H_k.

Each certificate is a gap-free cover of a parameter range by cells, every
cell carrying an interval-arithmetic upper bound strictly below the claim's
target.  Covers are found adaptively (greedy marching with width doubling,
or a zeta-lattice search per cell for the k=3 grid) but verification never
depends on how the cover was found: a stored certificate replays by
re-evaluating each cell bound against the claim's default statement, with
the cell bound, target and cover ranges building uses (``_CLAIMS``).

Claims:

* ``amed``    - s_k(a) = H(a) + ln(1/2 + 1/2 e^{-2ka}) is below a negative
                target on [left_k, 0.2743] (k >= 4).  Cells use the monotone
                split bound H(a'') + ln(1/2 + 1/2 e^{-2ka'}).
* ``k3grid``  - for k = 3 and c near 1, H_3(a, zeta; c) <= -0.002 on
                a in [0.099, 0.400], with zeta = (z1, z2) chosen per 0.001
                cell from the 0.001 lattice.
* ``alarge``  - the constant inequalities feeding the near-1/2 range
                (bounds on R(lam, x) = f(lam x)/(x^2 f(lam)), psi values,
                the entropy bound H(1/2 - x/2) <= ln(4/(x^2+2))) and the
                chained rate bound H_4 <= -x^2/15 + 1e-12 at c = 1.
* ``monotone``- sign certificates: e^x + e^{-x} - 2 - x^2 >= 0 (psi is
                increasing), (s-2)e^s + s + 2 >= 0 (R is increasing in x),
                cosh x <= e^{x^2/2}.

Equality-at-endpoint claims (all three sign certificates at 0, the entropy
bound and the chained rate bound at x = 0) cannot be certified strictly by
outward-rounded arithmetic; those endpoint cells carry the documented
slack targets 1e-15 / 1e-12 and use series or Taylor forms whose lower
bounds are exact at the degenerate point.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from itertools import chain
from typing import Any, Callable, NamedTuple

from xorsatlab.errors import CertificateFormatError, from_json, json_value
from xorsatlab.formulas import _hk_terms, lambda_of
from xorsatlab.intervals import (
    Interval,
    clamp,
    cosh_gap,
    entropy_int,
    f_int,
    fprime_int,
    gauss_cosh_gap,
    iconst,
    idecimal,
    iexp,
    ilog,
    ixlog_ratio,
    lambda_interval,
    psi_int,
    rate_numerator,
)

_ONE = Interval.point(1.0)
_X0 = "0.4514"  # right end of the chained-rate range
_ENDPOINT_SLACK = 1e-15
_CHAIN_SLACK = 1e-12
_TAYLOR_HI = 0.1  # right end of the alarge entropy bound's Taylor cell at x = 0


# ---------------------------------------------------------------------------
# Certificate containers


@dataclass
class CoverCell:
    """One certified cell: sup of the claim expression over [lo, hi] is `bound`,
    which must beat `target` (strictly unless strict=False)."""

    tag: str
    lo: float
    hi: float
    bound: float
    target: float
    strict: bool = True
    zeta: tuple[float, float] | None = None

    def passes(self) -> bool:
        return self.bound < self.target if self.strict else self.bound <= self.target

    def to_json_dict(self) -> dict:
        return {name: v for name, v in vars(self).items() if name != "zeta" or v is not None}


@dataclass
class Certificate:
    claim_id: str
    k: int | None
    c_range: tuple[float, float] | None
    cells: list[CoverCell]
    global_bound: float
    verified: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return dict(vars(self), cells=[c.to_json_dict() for c in self.cells])

    def dumps(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"))

    @classmethod
    def from_json_dict(cls, d: dict) -> "Certificate":
        return from_json(cls, d, CertificateFormatError, "certificate")

    @classmethod
    def loads(cls, text: str) -> "Certificate":
        try:
            d = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CertificateFormatError(f"certificate file is not JSON: {exc}") from None
        return cls.from_json_dict(d)


def check_cover(cells: list[CoverCell], lo: float, hi: float) -> bool:
    """Union of cells covers [lo, hi] with no gaps (endpoints chain)."""
    if not cells:
        return False
    ordered = sorted(cells, key=lambda c: c.lo)
    if ordered[0].lo > lo:
        return False
    reach = ordered[0].hi
    for cell in ordered[1:]:
        if cell.lo > reach:
            return False
        reach = max(reach, cell.hi)
    return reach >= hi


def _covers(cert: Certificate, ranges: dict) -> bool:
    """The cells of each tag cover the range the claim gives that tag."""
    return all(check_cover([c for c in cert.cells if c.tag == tag], lo, hi) for tag, (lo, hi) in ranges.items())


def _contains(outer: tuple[float, float], inner: tuple[float, float]) -> bool:
    return outer[0] <= inner[0] and inner[1] <= outer[1]


def _states_at_least(cert: Certificate, alpha_range: tuple[float, float], target: float, domain) -> bool:
    """Stored target <= `target`; the stored alpha range contains `alpha_range` and lies in `domain`."""
    try:
        stored_target = json_value(float, cert.details.get("target"), CertificateFormatError, "target")
        stored_range = json_value(tuple[float, float], cert.details.get("alpha_range"), CertificateFormatError, "range")
    except CertificateFormatError:
        return False
    return stored_target <= target and _contains(stored_range, alpha_range) and _contains(domain, stored_range)


def _finish(cert: Certificate, shared) -> Certificate:
    """Global bound and verdict: every cell passes and the cells cover the claim's ranges."""
    covered = _covers(cert, _CLAIMS[cert.claim_id].ranges(cert, shared))
    if not covered:
        cert.details["cover_gap"] = True
    cert.verified = covered and all(c.passes() for c in cert.cells)
    if not cert.cells:
        cert.global_bound = math.inf
    elif len({c.target for c in cert.cells}) == 1:
        cert.global_bound = max(c.bound for c in cert.cells)
        cert.details["bound_kind"] = "max cell bound (uniform target)"
    else:
        cert.global_bound = max(c.bound - c.target for c in cert.cells)
        cert.details["bound_kind"] = "max (bound - target) over cells"
    return cert


# ---------------------------------------------------------------------------
# Greedy adaptive marching

_MARCH_BUDGET = 10**5  # cells per march


def _march(make, lo, hi, w0=None):
    """Left-to-right cover of [lo, hi] by make(a, b) cells: grow width on success, halve on failure."""
    cells: list[CoverCell] = []
    a = lo
    w = w0 if w0 is not None else (hi - lo)
    while a < hi:
        if len(cells) >= _MARCH_BUDGET or w < 1e-12:
            return cells, False, a
        b = min(a + w, hi)
        cell = make(a, b)
        if cell.passes():
            cells.append(cell)
            a = b
            w *= 2.0
        else:
            w *= 0.5
    return cells, True, hi


# ---------------------------------------------------------------------------
# Claim: s_k negative on the medium range (k >= 4)


def interval_s_k(k: int, a: Interval) -> Interval:
    """Certified upper bound on sup of s_k over `a` (subset of [0, 1/2]).

    H is increasing there and the log term decreasing, so
    s_k <= H(a.hi) + ln(1/2 + 1/2 e^{-2k a.lo}); the returned interval
    encloses that split bound and its .hi certifies the sup.
    """
    if a.lo < 0.0 or a.hi > 0.5:
        raise ValueError("interval_s_k needs a inside [0, 1/2]")
    h = entropy_int(Interval.point(a.hi))
    e = iexp(Interval.point(-2.0 * k) * Interval.point(a.lo))
    logterm = ilog((_ONE + e) * Interval.point(0.5))
    return h + logterm


_AMED_LEFT = {4: 0.1681, 5: 0.1840, 6: 0.1666}
_AMED_TARGET = {4: -1e-5, 5: -0.005, 6: -0.03}
_AMED_RIGHT = 0.2743
_AMED_DOMAIN = (0.0, 0.5)  # interval_s_k's alpha domain


def _amed_k_ok(k) -> bool:
    """The amed k rule, shared by build and replay: interval_s_k needs -2.0 * k exact."""
    return isinstance(k, int) and 4 <= k <= 2**53


def _amed_statement(k: int) -> tuple[tuple[float, float], float]:
    """The default (alpha range, target) of the s_k claim."""
    return (_AMED_LEFT.get(k, 1.0 / k), _AMED_RIGHT), _AMED_TARGET.get(k, -0.03)


def certify_amed(k: int, target: float | None = None, alpha_range: tuple[float, float] | None = None) -> Certificate:
    """Cover [left_k, 0.2743] with cells certifying s_k < target.

    Defaults: left/target (0.1681, -1e-5) for k=4, (0.1840, -0.005) for
    k=5, (0.1666, -0.03) for k=6, (1/k, -0.03) beyond.
    """
    if not _amed_k_ok(k):
        raise ValueError("the s_k negativity claim needs an integer k with 4 <= k <= 2**53")
    default_range, default_target = _amed_statement(k)
    lo, hi = alpha_range or default_range
    target = default_target if target is None else target
    cert = Certificate("amed", k, None, [], math.nan, False, {"alpha_range": [lo, hi], "target": target})
    cert.cells, ok, stopped = _march(partial(_amed_cell, cert, None, "s_k"), lo, hi)
    if not ok:
        cert.details["failed_at"] = stopped
    return _finish(cert, None)


def _amed_cell(cert: Certificate, shared, tag: str, lo: float, hi: float, zeta=None) -> CoverCell:
    return CoverCell(tag, lo, hi, interval_s_k(cert.k, Interval(lo, hi)).hi, cert.details["target"])


# ---------------------------------------------------------------------------
# Claim: H_3 <= -0.002 on the 0.001 grid near c = 1


def _hk_dc(k: int, A: Interval, z1: float, z2: float) -> Interval:
    """dH/dc, the bracket that c multiplies in H_k."""
    B = _ONE - A
    return entropy_int(A) + (ixlog_ratio(A, z1) + ixlog_ratio(B, z2)) * k


def _hk_tail(s: Interval, d: Interval, LAM: Interval) -> Interval:
    """ln((f(lam s) + f(lam d)) / 2 f(lam)), with s = z2 + z1 and d = z2 - z1."""
    num = f_int(LAM * s) + f_int(LAM * d)
    den = f_int(LAM) * 2
    return ilog(num / den)


def _hk_dlam(s: Interval, d: Interval, LAM: Interval) -> Interval:
    ls, ld = LAM * s, LAM * d
    num = s * fprime_int(ls) + d * fprime_int(ld)
    den = f_int(ls) + f_int(ld)
    return num / den - fprime_int(LAM) / f_int(LAM)


def _zeta_sum_diff(z1: float, z2: float) -> tuple[Interval, Interval]:
    Z1, Z2 = Interval.point(z1), Interval.point(z2)
    return Z2 + Z1, Z2 - Z1


def _alpha_terms(k: int, A: Interval, z1: float, z2: float) -> tuple:
    """The centered form's terms that depend on the alpha sub-box only:
    dH/dc at its midpoint and over it, dH/dalpha / c over it, and A - mid."""
    am = A.mid
    B = _ONE - A
    inner = ilog(B / A) + (ilog(A / Interval.point(z1)) - ilog(B / Interval.point(z2))) * k
    return _hk_dc(k, Interval.point(am), z1, z2), _hk_dc(k, A, z1, z2), inner, A - am


def _lambda_terms(s: Interval, d: Interval, C: Interval, LAM: Interval) -> tuple:
    """The centered form's terms that depend on the (c, lambda) sub-range only:
    c at its midpoint, C, C - mid, the lambda tail at its midpoint, and
    dH/dlambda over LAM times LAM - mid."""
    cm, lm = C.mid, LAM.mid
    tail_mid = _hk_tail(s, d, Interval.point(lm))
    return Interval.point(cm), C, C - cm, tail_mid, _hk_dlam(s, d, LAM) * (LAM - lm)


def _centered(alpha: tuple, lam: tuple) -> Interval:
    """Mean-value form: H(mid) + dH/d(alpha,c,lambda)(box) . (box - mid).

    Much tighter than the straight box evaluation because the lambda and c
    dependencies nearly cancel near the optimal zeta.  The four terms are
    summed in this fixed order: interval sums round, so another order moves
    the last bits of the bound and with them the certificate bytes.
    """
    dc_mid, dc_box, inner, dA = alpha
    Cm, C, dC, tail_mid, lam_part = lam
    out = Cm * dc_mid + tail_mid
    out = out + (C * inner) * dA
    out = out + dc_box * dC
    return out + lam_part


def hk_cell_bound(
    k: int,
    alpha_cell: tuple[float, float],
    zeta: tuple[float, float],
    c_range: tuple[float, float],
    _lam_subs: list[tuple[Interval, Interval]] | None = None,
) -> float:
    """Certified sup of H_k(alpha, zeta; c) over alpha_cell x c_range.

    Subdivides the box (_K3_C_DIV x _K3_A_DIV), bounds each sub-box by the
    centered form, and returns the max.  The terms that depend on alpha
    alone are computed once per alpha sub-box and those that depend on
    (c, lambda) alone once per c sub-range, or passed in as `_lam_subs`;
    each sub-box then only combines them.
    """
    z1, z2 = zeta
    if _lam_subs is None:
        _lam_subs = _lambda_subranges(k, c_range)
    s, d = _zeta_sum_diff(z1, z2)
    alo, ahi = alpha_cell
    aedges = [alo + (ahi - alo) * i / _K3_A_DIV for i in range(_K3_A_DIV + 1)]
    alphas = [_alpha_terms(k, Interval(aedges[j], aedges[j + 1]), z1, z2) for j in range(_K3_A_DIV)]
    worst = -math.inf
    for C, LAM in _lam_subs:
        lam = _lambda_terms(s, d, C, LAM)
        for alpha in alphas:
            worst = max(worst, _centered(alpha, lam).hi)
    return worst


def _lambda_subranges(k: int, c_range: tuple[float, float]) -> list[tuple[Interval, Interval]]:
    c0, c1 = c_range
    edges = [c0 + (c1 - c0) * i / _K3_C_DIV for i in range(_K3_C_DIV + 1)]
    out = []
    for i in range(_K3_C_DIV):
        C = Interval(edges[i], edges[i + 1])
        out.append((C, lambda_interval(C * float(k))))
    return out


def _descend_zeta(objective, z: tuple[int, int], lattice: int, max_steps: int = 2000) -> tuple[int, int]:
    """Best-neighbor descent on the zeta lattice (units of 1/lattice)."""
    cur = objective(z)
    for _ in range(max_steps):
        best_v, best_z = cur, None
        for dx in (-1, 0, 1):
            for dy in (-1, 0, 1):
                if dx == 0 and dy == 0:
                    continue
                cand = (z[0] + dx, z[1] + dy)
                if not (1 <= cand[0] < lattice and 1 <= cand[1] < lattice):
                    continue
                v = objective(cand)
                if v < best_v - 1e-15:
                    best_v, best_z = v, cand
        if best_z is None:
            return z
        cur, z = best_v, best_z
    return z


_K3_ALPHA = (0.099, 0.400)  # the cells [j/1000, (j+1)/1000], j = 99..399
_K3_LATTICE = 1000  # alpha cells and zeta coordinates are multiples of 1/1000
_K3_DOMAIN = (1 / _K3_LATTICE, 0.5)  # alpha ranges a replayed k3grid certificate may state
# the lattice's zeta coordinates; nearer the unit square's edge a cell bound can take
# the log of a non-positive enclosure
_K3_ZETA = (1 / _K3_LATTICE, (_K3_LATTICE - 1) / _K3_LATTICE)
_K3_C_RANGE = (0.999, 1.001)
_K3_TARGET = -0.002
_K3_C_DIV = _K3_A_DIV = 2  # c sub-ranges and alpha sub-boxes per cell bound


def _k3_c_range_ok(c_range) -> bool:
    """The k3grid c range rule, shared by build and replay: inside [0.99, 1.01], at most 0.02 wide."""
    return c_range is not None and 0.99 <= c_range[0] < c_range[1] <= 1.01 and c_range[1] - c_range[0] <= 0.02


def certify_k3_grid(c_range: tuple[float, float] = _K3_C_RANGE, target: float = _K3_TARGET) -> Certificate:
    """For each alpha cell [j/1000, (j+1)/1000], j = 99..399, find a 0.001-lattice
    zeta minimizing the certified H_3 bound over (cell x c_range) and certify it
    below `target`."""
    if not _k3_c_range_ok(c_range):
        raise ValueError(f"c_range must lie inside [0.99, 1.01] and be at most 0.02 wide, got {tuple(c_range)}")
    k = 3
    lattice = _K3_LATTICE
    c_mid = 0.5 * (c_range[0] + c_range[1])
    lam_mid = lambda_of(k * c_mid)
    edges = [j / lattice for j in range(99, 401)]
    details = {
        "alpha_range": [edges[0], edges[-1]],
        "target": target,
        "c_div": _K3_C_DIV,
        "a_div": _K3_A_DIV,
        "zeta_lattice": 1.0 / lattice,
    }
    cert = Certificate("k3grid", k, c_range, [], math.nan, False, details)
    lam_subs = _lambda_subranges(k, c_range)
    failures = []
    prev_z: tuple[int, int] | None = None
    for lo, hi in zip(edges, edges[1:]):
        amid = 0.5 * (lo + hi)

        def objective(z: tuple[int, int]) -> float:
            return _hk_terms(amid, z[0] / lattice, z[1] / lattice, c_mid, k, lam_mid)

        start = prev_z or (round(amid * lattice), round((1.0 - amid) * lattice))
        z = _descend_zeta(objective, start, lattice)
        # the 4r best lattice points of each ring of radius r around z, r = 1, 2, 3
        rings = (
            sorted(
                ((z[0] + dx, z[1] + dy) for dx in range(-r, r + 1) for dy in range(-r, r + 1)
                 if 1 <= z[0] + dx < lattice and 1 <= z[1] + dy < lattice),
                key=objective,
            )[: 4 * r]
            for r in (1, 2, 3)
        )
        for cand in chain.from_iterable(rings):
            cell = _k3_cell(cert, lam_subs, "hk", lo, hi, (cand[0] / lattice, cand[1] / lattice))
            if cell.passes():
                prev_z = cand
                break
        else:
            cell = _k3_cell(cert, lam_subs, "hk", lo, hi, (z[0] / lattice, z[1] / lattice))
            failures.append([lo, hi])
        cert.cells.append(cell)
    if failures:
        details["failed_cells"] = failures
    return _finish(cert, lam_subs)


def _k3_cell(cert: Certificate, lam_subs, tag: str, lo: float, hi: float, zeta=None) -> CoverCell:
    bound = hk_cell_bound(cert.k, (lo, hi), zeta, cert.c_range, lam_subs)
    return CoverCell(tag, lo, hi, bound, cert.details["target"], True, zeta)


# ---------------------------------------------------------------------------
# Claim: constants and the chained rate bound near alpha = 1/2


def _iR(lam: Interval, x: Interval) -> Interval:
    return f_int(lam * x) / (x.sq() * f_int(lam))


def _entropy_gap_direct(X: Interval) -> Interval:
    """D(x) = H((1-x)/2) - ln(4/(x^2+2)) evaluated straight over X."""
    A = clamp((_ONE - X) * Interval.point(0.5), 0.0, 1.0)
    return entropy_int(A) - ilog(Interval.point(4.0) / (X.sq() + 2))


def _entropy_gap_taylor_cell(hi: float) -> float:
    """Upper bound of D on [0, hi] via D(0) + x D'(0) + x^2/2 sup D''.

    D and D' vanish at 0 (equality point) and
    D'' = -x^2 (10 - x^2) / ((x^2+2)^2 (1 - x^2)) <= 0, so the bound is a
    few ulps wide; direct evaluation can never certify this cell.  D'' has
    a pole at 1: a hi outside [0, 1/2] gets the bound +inf."""
    if not 0.0 <= hi <= 0.5:
        return math.inf
    X = Interval(0.0, hi)
    d0 = _entropy_gap_direct(Interval.point(0.0))
    # D'(x) = 2x/(x^2+2) - (1/2) ln((1+x)/(1-x)), exactly 0 at x = 0
    xz = Interval.point(0.0)
    d1 = xz * 2 / (xz.sq() + 2) - ilog((_ONE + xz) / (_ONE - xz)) * 0.5
    u = X.sq()
    dd_num = -(u * (Interval.point(10.0) - u))
    dd_den = (u + 2).sq() * (_ONE - u)
    dd = dd_num / dd_den
    out = d0 + X * d1 + X.sq() * dd * 0.5
    return out.hi


def _phi_chain(u: Interval) -> Interval:
    """phi(u) = ln((0.8u + 2)/(u + 2)) + u/15; decreasing on [0, x0^2]."""
    num = u * iconst(Fraction(4, 5)) + 2
    return ilog(num / (u + 2)) + u * iconst(Fraction(1, 15))


def _alarge_constant_cells() -> list[CoverCell]:
    """The fixed point inequalities (recorded as degenerate cells)."""
    checks = []
    r1 = _iR(idecimal("2.7694"), idecimal(_X0))
    checks.append(CoverCell("R(2.7694,x0)<0.5", 2.7694, 2.7694, r1.hi, 0.5))
    r2 = _iR(idecimal("3.5"), idecimal(_X0))
    checks.append(CoverCell("R(3.5,x0)<0.4", 3.5, 3.5, r2.hi, 0.4))
    r3 = _iR(idecimal("2.149"), idecimal("0.2"))
    checks.append(CoverCell("R(2.149,0.2)<=0.495", 2.149, 2.149, r3.hi, 0.495, strict=False))
    p = psi_int(idecimal("2.7694"))
    checks.append(CoverCell("psi(2.7694)<=3.3992", 2.7694, 2.7694, p.hi, 3.3992, strict=False))
    checks.append(CoverCell("psi(2.7694)>3.39", 2.7694, 2.7694, -p.lo, -3.39))
    # lambda(4) >= 3.5 via psi(3.5) <= 4 (psi increasing)
    p35 = psi_int(Interval.point(3.5))
    checks.append(CoverCell("psi(3.5)<=4", 3.5, 3.5, p35.hi, 4.0, strict=False))
    # phi decreasing on [0, x0^2]: (u+2)(0.8u+2) < 6 there
    u_range = Interval(0.0, idecimal(_X0).sq().hi)
    mono = (u_range + 2) * (u_range * iconst(Fraction(4, 5)) + 2)
    checks.append(CoverCell("phi-decreasing", 0.0, u_range.hi, mono.hi, 6.0))
    return checks


def certify_alarge_constants() -> Certificate:
    """Constant inequalities plus the entropy bound on [0, 1] and the chained
    rate bound H_4(alpha, (alpha, 1-alpha); 1) <= -x^2/15 + 1e-12 on a 0.002
    grid of x = 1 - 2 alpha in [0, 0.4514]."""
    details: dict = {
        "x0": _X0,
        "entropy_bound_range": [0.0, 1.0],
        "chain_range": [0.0, float(Fraction(_X0))],
        "depends_on": ["monotone"],
        "notes": "chain: H_4 <= [entropy bound] + ln(1/2 + 0.2 x^2) = phi(x^2) - x^2/15 "
        "using R(lambda(4), x) <= R(3.5, x0) < 0.4 (psi(3.5) <= 4 puts lambda(4) >= 3.5; "
        "R monotonicities are the 'monotone' certificate)",
    }
    cert = Certificate("alarge", 4, None, _alarge_constant_cells(), math.nan, False, details)
    # entropy bound: Taylor cell at the x = 0 equality point, marching beyond
    cert.cells.append(_alarge_cell(cert, None, "entropy-bound", 0.0, _TAYLOR_HI))
    march_cells, ok, stopped = _march(partial(_alarge_cell, cert, None, "entropy-bound"), _TAYLOR_HI, 1.0, w0=0.01)
    cert.cells.extend(march_cells)
    if not ok:
        details["failed_at"] = stopped
    # chained rate bound cells: phi(a^2) + entropy slack <= 1e-12, phi decreasing
    shared = _alarge_shared(cert)
    x0 = float(Fraction(_X0))
    grid = [round(0.002 * i, 6) for i in range(int(x0 / 0.002) + 1)]
    if grid[-1] < x0:
        grid.append(x0)
    cert.cells.extend(_alarge_cell(cert, shared, "rate-chain", a, b) for a, b in zip(grid, grid[1:]))
    return _finish(cert, shared)


def _alarge_shared(cert: Certificate) -> tuple[Interval, dict[str, CoverCell]]:
    """The slack each rate-chain cell adds (recomputed from the x = 0 entropy cell) and the constants by tag."""
    slack = max((_entropy_gap_taylor_cell(c.hi) for c in cert.cells if c.tag == "entropy-bound" and c.lo == 0.0),
                default=0.0)
    return Interval(0.0, max(slack, 0.0)), {c.tag: c for c in _alarge_constant_cells()}


def _alarge_cell(cert: Certificate, shared, tag: str, lo: float, hi: float, zeta=None) -> CoverCell:
    """The entropy cells use no shared term; a constant inequality is its own cell."""
    if tag == "entropy-bound" and lo == 0.0:
        return CoverCell(tag, lo, hi, _entropy_gap_taylor_cell(hi), _CHAIN_SLACK, False)
    if tag == "entropy-bound":
        return CoverCell(tag, lo, hi, _entropy_gap_direct(Interval(lo, hi)).hi, 0.0)
    d_slack, fixed = shared
    if tag == "rate-chain":
        return CoverCell(tag, lo, hi, (_phi_chain(Interval.point(lo).sq()) + d_slack).hi, _CHAIN_SLACK, False)
    return fixed[tag]


# ---------------------------------------------------------------------------
# Claim: monotonicity sign certificates


_SIGN_CLAIMS = {
    "psi-prime-numerator": (cosh_gap, 20.0, 1.0),
    "rate-numerator": (rate_numerator, 20.0, 1.0),
    "cosh-vs-gauss": (gauss_cosh_gap, 10.0, 0.75),
}


def certify_monotonicity() -> Certificate:
    """Nonnegativity of e^x + e^{-x} - 2 - x^2 and (s-2)e^s + s + 2 on [0, 20]
    and of e^{x^2/2} - cosh x on [0, 10].

    All three vanish at 0; the endpoint cell is evaluated by its
    positive-coefficient series (lower bound exact at 0) against the
    documented 1e-15 slack, the rest by direct interval marching.
    """
    cert = Certificate("monotone", None, None, [], math.nan, False, {"ranges": {}})
    for tag, (_, upper, series_hi) in _SIGN_CLAIMS.items():
        make = partial(_sign_cell, cert, None, tag)
        cert.cells.append(make(0.0, series_hi))
        march_cells, ok, stopped = _march(make, series_hi, upper, w0=0.25)
        cert.cells.extend(march_cells)
        cert.details["ranges"][tag] = [0.0, upper]
        if not ok:
            cert.details.setdefault("failed_at", {})[tag] = stopped
    return _finish(cert, None)


def _sign_cell(cert: Certificate, shared, tag: str, lo: float, hi: float, zeta=None) -> CoverCell:
    bound = -_SIGN_CLAIMS[tag][0](Interval(lo, hi)).lo
    return CoverCell(tag, lo, hi, bound, _ENDPOINT_SLACK if lo == 0.0 else 0.0, False)


# ---------------------------------------------------------------------------
# The claim table, replay and dispatch


class _Claim(NamedTuple):
    """What building and replaying one claim share.  `shared(cert)` is what
    every cell of a certificate uses, computed once per certificate."""

    params: tuple[str, ...]  # the certify_claim parameters the builder takes
    build: Callable[..., Certificate]
    states: Callable[[Certificate], bool]  # the stored statement implies the default one
    shared: Callable[[Certificate], Any]
    cell: Callable[..., CoverCell]  # (cert, shared, tag, lo, hi, zeta) -> cell
    ranges: Callable[[Certificate, Any], dict]  # tag -> (lo, hi) its cells must lie in and cover


_CLAIMS = {
    "amed": _Claim(
        params=("k", "target"), build=lambda k=4, target=None: certify_amed(k, target),
        states=lambda cert: _amed_k_ok(cert.k) and _states_at_least(cert, *_amed_statement(cert.k), _AMED_DOMAIN),
        shared=lambda cert: None, cell=_amed_cell,
        ranges=lambda cert, shared: {"s_k": cert.details["alpha_range"]},
    ),
    "k3grid": _Claim(
        params=("target", "c_range"), build=certify_k3_grid,
        states=lambda cert: (cert.k == 3 and _k3_c_range_ok(cert.c_range) and _contains(cert.c_range, _K3_C_RANGE)
                             and _states_at_least(cert, _K3_ALPHA, _K3_TARGET, _K3_DOMAIN)
                             and all(c.zeta and all(_K3_ZETA[0] <= z <= _K3_ZETA[1] for z in c.zeta)
                                     for c in cert.cells)),
        shared=lambda cert: _lambda_subranges(cert.k, cert.c_range), cell=_k3_cell,
        ranges=lambda cert, shared: {"hk": cert.details["alpha_range"]},
    ),
    "alarge": _Claim(
        params=(), build=certify_alarge_constants,
        states=lambda cert: True, shared=_alarge_shared, cell=_alarge_cell,
        # both marched ranges, and each constant's own point or range, so every constant is present
        ranges=lambda cert, shared: {"entropy-bound": (0.0, 1.0), "rate-chain": (0.0, float(Fraction(_X0))),
                                     **{tag: (c.lo, c.hi) for tag, c in shared[1].items()}},
    ),
    "monotone": _Claim(
        params=(), build=certify_monotonicity,
        states=lambda cert: True, shared=lambda cert: None, cell=_sign_cell,
        ranges=lambda cert, shared: {tag: (0.0, upper) for tag, (_, upper, _) in _SIGN_CLAIMS.items()},
    ),
}


def replay_certificate(cert: Certificate) -> bool:
    """Re-verify a stored certificate against its claim without re-searching.

    The certificate must state at least the claim's default statement (an
    amed or k3grid target at or below the default, alpha ranges containing
    the default ones, k and c range within the build's rules, k = 3 and
    lattice zetas for k3grid); each cell must lie in the range the claim
    gives its tag, carry the (target, strict) pair the claim assigns it,
    and its bound, recomputed with the stored zeta where there is one and
    the module's subdivisions, must beat that target; the cells must cover
    the claim's ranges.  What every cell shares (k3grid's lambda brackets,
    alarge's entropy slack and constant inequalities) is computed once,
    never read from the file.  Whatever `Certificate.loads` accepts replays
    to True or False."""
    claim = _CLAIMS.get(cert.claim_id)
    if claim is None or not claim.states(cert):
        return False
    shared = claim.shared(cert)
    ranges = claim.ranges(cert, shared)
    for stored in cert.cells:
        lo, hi = ranges.get(stored.tag, (math.nan, math.nan))
        if not lo <= stored.lo <= stored.hi <= hi:
            return False
        fresh = claim.cell(cert, shared, stored.tag, stored.lo, stored.hi, stored.zeta)
        if (fresh.target, fresh.strict) != (stored.target, stored.strict) or not fresh.passes():
            return False
    return _covers(cert, ranges)


def certify_claim(claim: str, k: int | None = None, target: float | None = None,
                  c_range: tuple[float, float] | None = None) -> Certificate:
    """CLI dispatch: claim in {amed, k3grid, alarge, monotone}.  A parameter
    the claim does not take must be None."""
    if claim not in _CLAIMS:
        raise ValueError(f"unknown claim {claim!r}; expected amed, k3grid, alarge or monotone")
    spec = _CLAIMS[claim]
    given = {name: v for name, v in (("k", k), ("target", target), ("c_range", c_range)) if v is not None}
    extra = [name for name in given if name not in spec.params]
    if extra:
        raise ValueError(f"the {claim} claim takes no {' or '.join(extra)}")
    return spec.build(**given)


__all__ = [
    "Certificate",
    "CoverCell",
    "certify_alarge_constants",
    "certify_amed",
    "certify_claim",
    "certify_k3_grid",
    "certify_monotonicity",
    "check_cover",
    "hk_cell_bound",
    "interval_s_k",
    "replay_certificate",
]
