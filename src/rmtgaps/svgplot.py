"""Minimal SVG histogram rendering, no plotting dependency.

Produces a density-normalized bar histogram with an optional overlay curve
(the limiting density sampled at a fixed number of points).  Output is
plain well-formed XML with deterministic number formatting.
"""

from __future__ import annotations

import numpy as np

WIDTH = 640
HEIGHT = 420
MARGIN_L = 60
MARGIN_R = 20
MARGIN_T = 30
MARGIN_B = 45

CURVE_POINTS = 256


def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def histogram_svg(samples, bins: int, title: str, xlabel: str, density_fn=None) -> str:
    """Histogram of the samples with an optional overlaid density curve;
    ``density_fn`` maps an array of points to the array of their densities."""
    data = np.asarray(samples, dtype=np.float64).ravel()
    if data.size == 0:
        raise ValueError("no samples to plot")
    lo, hi = float(np.min(data)), float(np.max(data))
    if not np.all(np.diff(np.linspace(lo, hi, bins + 1)) > 0):  # too narrow for `bins` bins
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(data, bins=bins, range=(lo, hi), density=True)

    ymax = float(np.max(counts)) if counts.size else 1.0
    curve = None
    if density_fn is not None:
        xs = np.linspace(lo, hi, CURVE_POINTS)
        ys = density_fn(xs)
        ymax = max(ymax, float(np.max(ys)))
        curve = (xs, ys)
    ymax = 1.05 * ymax if ymax > 0 else 1.0

    plot_w = WIDTH - MARGIN_L - MARGIN_R
    plot_h = HEIGHT - MARGIN_T - MARGIN_B

    def sx(x: float) -> float:
        return MARGIN_L + (x - lo) / (hi - lo) * plot_w

    def sy(y: float) -> float:
        return MARGIN_T + plot_h - y / ymax * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<text x="{WIDTH / 2}" y="18" text-anchor="middle" font-size="14">{_escape(title)}</text>',
    ]
    for left, right, c in zip(edges[:-1], edges[1:], counts):
        if c <= 0:
            continue
        x0, x1 = sx(left), sx(right)
        y = sy(float(c))
        parts.append(
            f'<rect x="{_fmt(x0)}" y="{_fmt(y)}" width="{_fmt(x1 - x0)}" '
            f'height="{_fmt(MARGIN_T + plot_h - y)}" fill="#7aa6c2" stroke="none"/>'
        )
    if curve is not None:
        pts = " ".join(f"{_fmt(sx(float(x)))},{_fmt(sy(float(y)))}" for x, y in zip(*curve))
        parts.append(f'<polyline points="{pts}" fill="none" stroke="#b03a2e" stroke-width="1.5"/>')
    # axes
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T + plot_h}" x2="{MARGIN_L + plot_w}" '
        f'y2="{MARGIN_T + plot_h}" stroke="black"/>'
    )
    parts.append(
        f'<line x1="{MARGIN_L}" y1="{MARGIN_T}" x2="{MARGIN_L}" y2="{MARGIN_T + plot_h}" stroke="black"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        xv = lo + frac * (hi - lo)
        xpix = sx(xv)
        parts.append(
            f'<line x1="{_fmt(xpix)}" y1="{MARGIN_T + plot_h}" x2="{_fmt(xpix)}" '
            f'y2="{MARGIN_T + plot_h + 5}" stroke="black"/>'
        )
        parts.append(
            f'<text x="{_fmt(xpix)}" y="{MARGIN_T + plot_h + 20}" text-anchor="middle" '
            f'font-size="11">{_fmt(xv)}</text>'
        )
    parts.append(
        f'<text x="{MARGIN_L + plot_w / 2}" y="{HEIGHT - 8}" text-anchor="middle" '
        f'font-size="12">{_escape(xlabel)}</text>'
    )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
