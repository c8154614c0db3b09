"""Minimal deterministic SVG chart: one fitted curve over its data.

Writes self-contained SVG text directly; output depends only on the data
passed in, so repeated runs are byte-identical.  The curve is one <path>
element and each scatter point one <circle>.  Non-finite curve values split
the path into separate segments instead of being drawn.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

__all__ = ["curve_chart"]

_WIDTH, _HEIGHT = 640, 420
_LEFT, _TOP = 64, 36  # margins; the right one is 16 and the bottom one 48
_PLOT_W, _PLOT_H = _WIDTH - _LEFT - 16, _HEIGHT - _TOP - 48
_BOTTOM = _TOP + _PLOT_H
_COLOR = "#1f6fb2"
_FONT = 'font-family="sans-serif" font-size='


def _padded(values: list[float]) -> tuple[float, float]:
    """Range of ``values``, one unit wide if flat, padded by 5% each side."""
    lo, hi = min(values), max(values)
    if hi == lo:
        lo, hi = lo - 0.5, hi + 0.5
    pad = 0.05 * (hi - lo)
    return lo - pad, hi + pad


def curve_chart(
    title: str,
    label: str,
    xs: Sequence[float],
    ys: Sequence[float],
    points: Iterable[tuple[float, float]] = (),
) -> str:
    """The curve (``xs``, ``ys``), named ``label``, and a scatter of
    ``points`` on dominance and change-rate axes, as SVG text."""
    points = [(px, py) for px, py in points if math.isfinite(px) and math.isfinite(py)]
    x_vals = [x for x in xs if math.isfinite(x)] + [px for px, _ in points]
    y_vals = [y for y in ys if math.isfinite(y)] + [py for _, py in points]
    if not x_vals or not y_vals:
        x_vals = y_vals = [0.0, 1.0]
    x_lo, x_hi = _padded(x_vals)
    y_lo, y_hi = _padded(y_vals)

    def sx(x: float) -> float:
        return _LEFT + (x - x_lo) / (x_hi - x_lo) * _PLOT_W

    def sy(y: float) -> float:
        return _TOP + (y_hi - y) / (y_hi - y_lo) * _PLOT_H

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}">\n'
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>\n'
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle" {_FONT}"14">'
        f"{_escape(title)}</text>\n"
        f'<rect x="{_LEFT}" y="{_TOP}" width="{_PLOT_W}" height="{_PLOT_H}" fill="none" '
        'stroke="#444" stroke-width="1"/>\n'
    ]
    for i in range(5):  # ticks at the quarters of each axis
        x_val = x_lo + i / 4 * (x_hi - x_lo)
        y_val = y_lo + i / 4 * (y_hi - y_lo)
        px, py = sx(x_val), sy(y_val)
        parts.append(
            f'<line x1="{px:.2f}" y1="{_BOTTOM}" x2="{px:.2f}" y2="{_BOTTOM + 4}" '
            'stroke="#444"/>\n'
            f'<text x="{px:.2f}" y="{_BOTTOM + 18}" text-anchor="middle" {_FONT}"11">'
            f"{x_val:.3g}</text>\n"
            f'<line x1="{_LEFT - 4}" y1="{py:.2f}" x2="{_LEFT}" y2="{py:.2f}" stroke="#444"/>\n'
            f'<text x="{_LEFT - 8}" y="{py + 4:.2f}" text-anchor="end" {_FONT}"11">'
            f"{y_val:.3g}</text>\n"
        )
    middle = _TOP + _PLOT_H / 2
    parts.append(
        f'<text x="{_LEFT + _PLOT_W / 2:.1f}" y="{_HEIGHT - 10}" text-anchor="middle" '
        f'{_FONT}"12">dominance</text>\n'
        f'<text x="16" y="{middle:.1f}" text-anchor="middle" {_FONT}"12" '
        f'transform="rotate(-90 16 {middle:.1f})">change rate</text>\n'
    )
    if y_lo < 0.0 < y_hi:  # zero line
        parts.append(
            f'<line x1="{_LEFT}" y1="{sy(0.0):.2f}" x2="{_LEFT + _PLOT_W}" '
            f'y2="{sy(0.0):.2f}" stroke="#bbb" stroke-dasharray="4 3"/>\n'
        )

    segments, command = [], "M"  # the pen lifts at every non-finite value
    for x, y in zip(xs, ys):
        if math.isfinite(x) and math.isfinite(y):
            segments.append(f"{command} {sx(x):.2f} {sy(y):.2f}")
            command = "L"
        else:
            command = "M"
    if segments:
        parts.append(
            f'<path d="{" ".join(segments)}" fill="none" stroke="{_COLOR}" '
            'stroke-width="1.5"/>\n'
        )
    parts.append(
        f'<text x="{_LEFT + 8}" y="{_TOP + 14}" fill="{_COLOR}" {_FONT}"11">'
        f"{_escape(label)}</text>\n"
    )
    parts.extend(
        f'<circle cx="{sx(px):.2f}" cy="{sy(py):.2f}" r="3" fill="#333" fill-opacity="0.6"/>\n'
        for px, py in points
    )
    parts.append("</svg>\n")
    return "".join(parts)


def _escape(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")
