"""Self-contained SVG rendering of two-dimensional scan results.

One figure per target: verdict cells (non-classical, classical, failed) as
filled rectangles with run-length merging along rows, refined boundary
polylines drawn on top, and minimal axis annotation.  Output is plain text
built deterministically, so identical scans give identical files.
"""
from __future__ import annotations

import math

import numpy as np

from .errors import ParameterError

__all__ = ["render_svg"]

COLOR_NONCLASSICAL = "#b2182b"
COLOR_CLASSICAL = "#2166ac"
COLOR_FAILED = "#999999"

WIDTH, HEIGHT = 640, 480
MARGIN_L, MARGIN_R, MARGIN_T, MARGIN_B = 64, 16, 28, 44


def _fmt(x: float) -> str:
    return format(float(x), ".6g")


class _AxisMap:
    def __init__(self, values: np.ndarray, scale: str, px_lo: float,
                 px_hi: float, flip: bool = False):
        self.log = scale == "log"
        pts = np.log10(values) if self.log else np.asarray(values, dtype=float)
        lo, hi = float(pts[0]), float(pts[-1])
        if hi == lo:
            hi = lo + 1.0
        self.lo, self.hi = lo, hi
        self.px_lo, self.px_hi = px_lo, px_hi
        self.flip = flip
        # cell edges halfway between nodes, clamped to the data range
        if len(pts) > 1:
            mids = 0.5 * (pts[:-1] + pts[1:])
            self.edges = np.concatenate(([lo], mids, [hi]))
        else:
            self.edges = np.array([lo - 0.5, lo + 0.5])

    def _px(self, v) -> float:
        """Pixel position of ``v``, a coordinate on the mapped scale."""
        frac = (v - self.lo) / (self.hi - self.lo)
        if self.flip:
            frac = 1.0 - frac
        return self.px_lo + frac * (self.px_hi - self.px_lo)

    def to_px(self, value: float) -> float:
        return self._px(math.log10(value) if self.log else float(value))

    def edge_px(self, k: int) -> float:
        return self._px(self.edges[k])


def _check_axes(count: int) -> None:
    """Raise ParameterError unless a scan of ``count`` axes can be drawn:
    the one rule of render_svg and of ``twinbeam scan --svg``, which
    checks it before the scan runs."""
    if count != 2:
        raise ParameterError(
            f"SVG output needs a scan of two axes, got {count}")


def render_svg(result, target_label: str) -> str:
    """SVG heatmap of one target's verdicts with boundary overlays."""
    _check_axes(len(result.shape))
    if target_label not in result.verdicts:
        raise ParameterError(f"unknown target {target_label!r}")
    verdicts = result.verdicts[target_label]
    xs, ys = result.axis_values
    ax0, ax1 = result.spec.axes
    xmap = _AxisMap(xs, ax0.scale, MARGIN_L, WIDTH - MARGIN_R)
    ymap = _AxisMap(ys, ax1.scale, MARGIN_T, HEIGHT - MARGIN_B, flip=True)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" '
        f'height="{HEIGHT}" viewBox="0 0 {WIDTH} {HEIGHT}">',
        f'<rect width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
        f'<text x="{WIDTH / 2:.1f}" y="18" text-anchor="middle" '
        f'font-family="sans-serif" font-size="13">{target_label}</text>',
    ]

    colors = {1: COLOR_NONCLASSICAL, 0: COLOR_CLASSICAL, -1: COLOR_FAILED}
    for i in range(len(xs)):
        x_a = xmap.edge_px(i)
        x_b = xmap.edge_px(i + 1)
        j = 0
        while j < len(ys):
            v = int(verdicts[i, j])
            j_end = j
            while j_end + 1 < len(ys) and int(verdicts[i, j_end + 1]) == v:
                j_end += 1
            y_a = ymap.edge_px(j_end + 1)  # flipped axis: larger j is higher
            y_b = ymap.edge_px(j)
            parts.append(
                f'<rect x="{x_a:.2f}" y="{y_a:.2f}" '
                f'width="{x_b - x_a:.2f}" height="{y_b - y_a:.2f}" '
                f'fill="{colors[v]}"/>')
            j = j_end + 1

    for line in result.boundaries.get(target_label, []):
        pts = " ".join(f"{xmap.to_px(x):.2f},{ymap.to_px(y):.2f}"
                       for x, y in line)
        parts.append(
            f'<polyline points="{pts}" fill="none" stroke="#ffffff" '
            f'stroke-width="1.6"/>')

    axis_font = 'font-family="sans-serif" font-size="11"'
    parts.append(
        f'<text x="{(MARGIN_L + WIDTH - MARGIN_R) / 2:.1f}" '
        f'y="{HEIGHT - 8}" text-anchor="middle" {axis_font}>'
        f'{ax0.name}</text>')
    parts.append(
        f'<text x="14" y="{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f}" '
        f'text-anchor="middle" {axis_font} transform="rotate(-90 14 '
        f'{(MARGIN_T + HEIGHT - MARGIN_B) / 2:.1f})">{ax1.name}</text>')
    for value, px in ((xs[0], xmap.to_px(xs[0])), (xs[-1], xmap.to_px(xs[-1]))):
        parts.append(
            f'<text x="{px:.1f}" y="{HEIGHT - MARGIN_B + 16}" '
            f'text-anchor="middle" {axis_font}>{_fmt(value)}</text>')
    for value, py in ((ys[0], ymap.to_px(ys[0])), (ys[-1], ymap.to_px(ys[-1]))):
        parts.append(
            f'<text x="{MARGIN_L - 6}" y="{py + 4:.1f}" '
            f'text-anchor="end" {axis_font}>{_fmt(value)}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
