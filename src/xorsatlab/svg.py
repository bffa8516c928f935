"""Minimal standalone SVG line charts (no plotting dependency), and the
lab's two charts: ``plot_sweep`` of a campaign CSV, ``plot_hk`` of H_k.

One fixed schema: 900x560 canvas, left/bottom axes with ~6 round ticks,
one polyline per series, legend in the top-right corner.
"""

from __future__ import annotations

import csv
import math

from xorsatlab.formulas import H_k, zeta_choice

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#17becf")
_W, _H = 900, 560
_ML, _MR, _MT, _MB = 80, 30, 50, 60


def _ticks(lo: float, hi: float, n: int = 6) -> list[float]:
    if hi <= lo:
        hi = lo + 1.0
    raw = (hi - lo) / max(n - 1, 1)
    mag = 10.0 ** math.floor(math.log10(raw))
    for mult in (1.0, 2.0, 2.5, 5.0, 10.0):
        step = mult * mag
        if step >= raw:
            break
    start = math.ceil(lo / step) * step
    out = []
    t = start
    while t <= hi + 1e-12 * abs(step):
        out.append(round(t, 12))
        t += step
    return out or [lo, hi]


def _fmt(x: float) -> str:
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return f"{x:.6g}"


def _escape(text: str) -> str:  # `&` first, so the entities the next two add stay intact
    return text.replace("&", "&amp;").replace(">", "&gt;").replace("<", "&lt;")


def line_chart(series, title: str, xlabel: str, ylabel: str) -> str:
    """series: list of (label, xs, ys) with equal-length float lists; the title and labels are plain text."""
    title, xlabel, ylabel = _escape(title), _escape(xlabel), _escape(ylabel)
    series = [(_escape(label), list(xs), list(ys)) for label, xs, ys in series if len(xs)]
    if not series:
        raise ValueError("no data to plot")
    xlo = min(min(xs) for _, xs, _ in series)
    xhi = max(max(xs) for _, xs, _ in series)
    ylo = min(min(ys) for _, _, ys in series)
    yhi = max(max(ys) for _, _, ys in series)
    if xhi == xlo:
        xhi = xlo + 1.0
    if yhi == ylo:
        yhi = ylo + 1.0
    pad = 0.04 * (yhi - ylo)
    ylo, yhi = ylo - pad, yhi + pad
    pw, ph = _W - _ML - _MR, _H - _MT - _MB

    def sx(x: float) -> float:
        return _ML + pw * (x - xlo) / (xhi - xlo)

    def sy(y: float) -> float:
        return _MT + ph * (1.0 - (y - ylo) / (yhi - ylo))

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_W}" height="{_H}" '
        f'viewBox="0 0 {_W} {_H}" font-family="sans-serif" font-size="13">',
        f'<rect width="{_W}" height="{_H}" fill="white"/>',
        f'<text x="{_W / 2}" y="28" text-anchor="middle" font-size="17">{title}</text>',
    ]
    ax = f'stroke="#444" stroke-width="1"'
    parts.append(f'<line x1="{_ML}" y1="{_MT}" x2="{_ML}" y2="{_H - _MB}" {ax}/>')
    parts.append(f'<line x1="{_ML}" y1="{_H - _MB}" x2="{_W - _MR}" y2="{_H - _MB}" {ax}/>')
    for t in _ticks(xlo, xhi):
        if not xlo <= t <= xhi:
            continue
        x = sx(t)
        parts.append(f'<line x1="{x:.2f}" y1="{_H - _MB}" x2="{x:.2f}" y2="{_H - _MB + 5}" {ax}/>')
        parts.append(f'<text x="{x:.2f}" y="{_H - _MB + 20}" text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(ylo, yhi):
        if not ylo <= t <= yhi:
            continue
        y = sy(t)
        parts.append(f'<line x1="{_ML - 5}" y1="{y:.2f}" x2="{_ML}" y2="{y:.2f}" {ax}/>')
        parts.append(f'<text x="{_ML - 9}" y="{y + 4:.2f}" text-anchor="end">{_fmt(t)}</text>')
        parts.append(
            f'<line x1="{_ML}" y1="{y:.2f}" x2="{_W - _MR}" y2="{y:.2f}" stroke="#ddd" stroke-width="0.5"/>'
        )
    parts.append(
        f'<text x="{_ML + pw / 2}" y="{_H - 14}" text-anchor="middle">{xlabel}</text>'
    )
    parts.append(
        f'<text x="20" y="{_MT + ph / 2}" text-anchor="middle" '
        f'transform="rotate(-90 20 {_MT + ph / 2})">{ylabel}</text>'
    )
    for i, (label, xs, ys) in enumerate(series):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{sx(x):.2f},{sy(y):.2f}" for x, y in sorted(zip(xs, ys)))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="{color}" stroke-width="1.8"/>')
        ly = _MT + 18 + 18 * i
        parts.append(f'<line x1="{_W - _MR - 150}" y1="{ly - 4}" x2="{_W - _MR - 120}" y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{_W - _MR - 112}" y="{ly}">{label}</text>')
    parts.append("</svg>")
    return "\n".join(parts)


def plot_sweep(csv_path: str, out_svg: str, *, x: str, y: str, series: str) -> str:
    """Write the SVG chart of a per-trial CSV and return its text: the mean
    of column `y` against column `x`, one line per value of column `series`.
    A CSV with no data rows or without one of the three columns raises
    ValueError before any file is written."""
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no data rows in {csv_path}")
    missing = [col for col in (x, y, series) if col not in rows[0]]
    if missing:
        raise ValueError(f"CSV lacks columns {'/'.join(map(repr, missing))}")
    grouped: dict[str, dict[float, list[float]]] = {}
    for row in rows:
        grouped.setdefault(row[series], {}).setdefault(float(row[x]), []).append(float(row[y]))
    lines = []
    for label in sorted(grouped):
        xs = sorted(grouped[label])
        ys = [sum(grouped[label][v]) / len(grouped[label][v]) for v in xs]
        lines.append((f"{series}={label}", xs, ys))
    text = line_chart(lines, f"mean {y} vs {x}", x, f"mean {y}")
    with open(out_svg, "w") as fh:
        fh.write(text)
    return text


def plot_hk(out_svg: str, *, k: int, c_values: list[float]) -> str:
    """Write the SVG chart of the rate function H_k(alpha, zeta(alpha); c)
    against alpha, one line per density in `c_values`, and return its text
    (the kink where the zeta recipe switches forms is visible at alpha_k)."""
    alphas = [i / 400 for i in range(1, 400)]
    lines = [(f"c={c:g}", alphas, [H_k(a, zeta_choice(k, c, a), c, k) for a in alphas]) for c in c_values]
    text = line_chart(lines, f"rate function, k={k}", "alpha", "H_k")
    with open(out_svg, "w") as fh:
        fh.write(text)
    return text


__all__ = ["line_chart", "plot_hk", "plot_sweep"]
