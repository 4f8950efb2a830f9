"""Minimal self-contained SVG line charts for sweep outputs.

CSV is the canonical output format; these charts exist so a sweep can be
eyeballed without any plotting dependency. Only what the sweep needs is
implemented: several named series over a shared x axis.
"""

from __future__ import annotations

import math

PALETTE = ("#d62728", "#1f77b4", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

WIDTH, HEIGHT = 640, 420
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 24, 40, 48


def _top(lo: float, hi: float) -> float:
    """hi, or, for a range lost in the rounding of its own magnitude (a
    single value, say), a top ticks can step to: lo + 1, or lo + |lo| / 1024
    where that is wider, as 1 is lost in the rounding of a large lo."""
    if hi - lo < 64 * math.ulp(max(abs(lo), abs(hi))):
        return lo + max(1.0, abs(lo) / 1024)
    return hi


def _ticks(lo: float, hi: float, target: int = 6) -> list[float]:
    raw = (hi - lo) / target
    mag = 10 ** math.floor(math.log10(raw))
    step = min((m for m in (1, 2, 5, 10) if m * mag >= raw), default=10) * mag
    first = math.ceil(lo / step) * step
    # ticks drop the rounding error of their sums at 12 decimals, or at a
    # thousandth of a step where the step is smaller than 1e-9 (12 decimals
    # would round ticks 1e-31 apart to 0)
    digits = max(12, 3 - math.floor(math.log10(step)))
    ticks = []
    t = first
    # a tick past hi by rounding error still counts, but a fixed 1e-12
    # would run a range of tiny values on to 1e-12, one step at a time
    while t <= hi + min(1e-12, step / 2):
        ticks.append(round(t, digits))
        t += step
    return ticks


def _fmt(x: float) -> str:
    return f"{x:g}"


def line_chart(series: list[tuple[str, list[float], list[float]]],
               title: str, xlabel: str, ylabel: str) -> str:
    """Render named (xs, ys) series as an SVG document string.

    Points with non-finite y (for example a traffic level without an
    equilibrium) break the polyline instead of being drawn.
    """
    xs_all = [x for _, xs, _ in series for x in xs]
    ys_all = [y for _, _, ys in series for y in ys if math.isfinite(y)]
    if not xs_all or not ys_all:
        xs_all, ys_all = [0.0, 1.0], [0.0, 1.0]
    x_lo, x_hi = min(xs_all), max(xs_all)
    y_lo, y_hi = min(ys_all), max(ys_all)
    x_hi, y_hi = _top(x_lo, x_hi), _top(y_lo, y_hi)
    pad = 0.05 * (y_hi - y_lo)
    y_lo, y_hi = y_lo - pad, y_hi + pad

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def px(x):
        return MARGIN_L + (x - x_lo) / (x_hi - x_lo) * plot_w

    def py(y):
        return MARGIN_T + (y_hi - y) / (y_hi - y_lo) * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" font-family="sans-serif" font-size="12">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="20" text-anchor="middle" font-size="15">{title}</text>',
    ]
    axis = f'stroke="#444" stroke-width="1"'
    parts.append(f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" '
                 f'y2="{HEIGHT - MARGIN_B}" {axis}/>')
    parts.append(f'<line x1="{MARGIN_L}" y1="{HEIGHT - MARGIN_B}" x2="{WIDTH - MARGIN_R}" '
                 f'y2="{HEIGHT - MARGIN_B}" {axis}/>')
    for t in _ticks(x_lo, x_hi):
        if x_lo <= t <= x_hi:
            x = px(t)
            parts.append(f'<line x1="{x:.1f}" y1="{HEIGHT - MARGIN_B}" x2="{x:.1f}" '
                         f'y2="{HEIGHT - MARGIN_B + 5}" {axis}/>')
            parts.append(f'<text x="{x:.1f}" y="{HEIGHT - MARGIN_B + 18}" '
                         f'text-anchor="middle">{_fmt(t)}</text>')
    for t in _ticks(y_lo, y_hi):
        if y_lo <= t <= y_hi:
            y = py(t)
            parts.append(f'<line x1="{MARGIN_L - 5}" y1="{y:.1f}" x2="{MARGIN_L}" '
                         f'y2="{y:.1f}" {axis}/>')
            parts.append(f'<text x="{MARGIN_L - 8}" y="{y + 4:.1f}" '
                         f'text-anchor="end">{_fmt(t)}</text>')
    parts.append(f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 10}" '
                 f'text-anchor="middle">{xlabel}</text>')
    parts.append(f'<text x="16" y="{MARGIN_T + plot_h / 2}" text-anchor="middle" '
                 f'transform="rotate(-90 16 {MARGIN_T + plot_h / 2})">{ylabel}</text>')

    for i, (name, xs, ys) in enumerate(series):
        color = PALETTE[i % len(PALETTE)]
        segment: list[str] = []
        for x, y in zip(xs, ys):
            if math.isfinite(y):
                segment.append(f"{px(x):.1f},{py(y):.1f}")
            elif segment:
                parts.append(f'<polyline points="{" ".join(segment)}" fill="none" '
                             f'stroke="{color}" stroke-width="2"/>')
                segment = []
        if segment:
            parts.append(f'<polyline points="{" ".join(segment)}" fill="none" '
                         f'stroke="{color}" stroke-width="2"/>')
        ly = MARGIN_T + 8 + 16 * i
        parts.append(f'<line x1="{WIDTH - MARGIN_R - 120}" y1="{ly}" '
                     f'x2="{WIDTH - MARGIN_R - 96}" y2="{ly}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{WIDTH - MARGIN_R - 90}" y="{ly + 4}">{name}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
