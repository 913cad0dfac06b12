"""Minimal log-log SVG line plots for convergence reports.

Hand-rolled on purpose: the output is a static diagnostic, so a small
writer with fixed styling beats a plotting dependency. Output is fully
deterministic (no timestamps, no randomized ids).
"""

from __future__ import annotations

import math
from typing import Sequence
from xml.sax.saxutils import escape

from .errors import InvalidArgumentError

__all__ = ["write_loglog_svg"]

_WIDTH = 640
_HEIGHT = 480
_MARGIN_L = 70
_MARGIN_R = 20
_MARGIN_T = 40
_MARGIN_B = 50
_COLOR = "#1f4e8c"
_GUIDE_ORDERS = (1, 2, 3)


def _decades(lo: float, hi: float) -> list[int]:
    return list(range(math.floor(math.log10(lo)), math.ceil(math.log10(hi)) + 1))


def write_loglog_svg(
    path: str,
    series: tuple[str, Sequence[float], Sequence[float]],
    title: str,
    xlabel: str,
    ylabel: str,
) -> None:
    """Write a log-log plot of one (label, xs, ys) series with slope guides.

    Guide lines of orders 1, 2 and 3 are anchored at the first point of the
    series so measured slopes can be read against them. The title, the axis
    labels and the series label are written as escaped XML text.
    """
    label, xs, ys = series
    if len(xs) != len(ys) or not xs:
        raise InvalidArgumentError(f"series {label!r} must be nonempty with equal lengths")
    if not all(0.0 < v < math.inf for v in (*xs, *ys)):  # nan fails too
        raise InvalidArgumentError(f"series {label!r} must be positive and finite for log scaling")

    x0, x1 = min(xs), max(xs)
    y0, y1 = min(ys), max(ys)
    # Pad one tenth of a decade so markers do not sit on the frame.
    lx0, lx1 = math.log10(x0) - 0.1, math.log10(x1) + 0.1
    ly0, ly1 = math.log10(y0) - 0.3, math.log10(y1) + 0.3
    if lx1 == lx0:
        lx0, lx1 = lx0 - 0.5, lx1 + 0.5
    if ly1 == ly0:
        ly0, ly1 = ly0 - 0.5, ly1 + 0.5
    plot_w = _WIDTH - _MARGIN_L - _MARGIN_R
    plot_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(x: float) -> float:
        return _MARGIN_L + (math.log10(x) - lx0) / (lx1 - lx0) * plot_w

    def py(y: float) -> float:
        return _MARGIN_T + (ly1 - math.log10(y)) / (ly1 - ly0) * plot_h

    parts: list[str] = []
    parts.append(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" height="{_HEIGHT}" '
        f'viewBox="0 0 {_WIDTH} {_HEIGHT}" font-family="monospace" font-size="12">'
    )
    parts.append(f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>')
    parts.append(
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{plot_w}" height="{plot_h}" '
        f'fill="none" stroke="black"/>'
    )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="20" text-anchor="middle">{escape(title)}</text>'
    )
    parts.append(
        f'<text x="{_WIDTH / 2:.1f}" y="{_HEIGHT - 12}" text-anchor="middle">'
        f'{escape(xlabel)}</text>'
    )
    parts.append(
        f'<text x="16" y="{_HEIGHT / 2:.1f}" text-anchor="middle" '
        f'transform="rotate(-90 16 {_HEIGHT / 2:.1f})">{escape(ylabel)}</text>'
    )

    for d in _decades(10.0**lx0, 10.0**lx1):
        x = 10.0**d
        if lx0 <= d <= lx1:
            parts.append(
                f'<line x1="{px(x):.2f}" y1="{_MARGIN_T}" x2="{px(x):.2f}" '
                f'y2="{_MARGIN_T + plot_h}" stroke="#cccccc" stroke-width="0.5"/>'
            )
            parts.append(
                f'<text x="{px(x):.2f}" y="{_MARGIN_T + plot_h + 16}" '
                f'text-anchor="middle">1e{d}</text>'
            )
    for d in _decades(10.0**ly0, 10.0**ly1):
        y = 10.0**d
        if ly0 <= d <= ly1:
            parts.append(
                f'<line x1="{_MARGIN_L}" y1="{py(y):.2f}" x2="{_MARGIN_L + plot_w}" '
                f'y2="{py(y):.2f}" stroke="#cccccc" stroke-width="0.5"/>'
            )
            parts.append(
                f'<text x="{_MARGIN_L - 6}" y="{py(y):.2f}" text-anchor="end" '
                f'dominant-baseline="middle">1e{d}</text>'
            )

    # Slope guides through the first point of the series.
    gx0, gy0 = xs[0], ys[0]
    for order in _GUIDE_ORDERS:
        xa, xb = 10.0**lx0, 10.0**lx1
        ya = gy0 * (xa / gx0) ** order
        yb = gy0 * (xb / gx0) ** order
        parts.append(
            f'<line x1="{px(xa):.2f}" y1="{py(ya):.2f}" x2="{px(xb):.2f}" y2="{py(yb):.2f}" '
            f'stroke="#999999" stroke-dasharray="5 4" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{px(xb) - 4:.2f}" y="{py(yb) - 4:.2f}" text-anchor="end" '
            f'fill="#666666">slope {order}</text>'
        )

    points = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
    parts.append(
        f'<polyline points="{points}" fill="none" stroke="{_COLOR}" stroke-width="1.5"/>'
    )
    for x, y in zip(xs, ys):
        parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" fill="{_COLOR}"/>')
    parts.append(
        f'<text x="{_MARGIN_L + 8}" y="{_MARGIN_T + 16}" fill="{_COLOR}">{escape(label)}</text>'
    )

    parts.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(parts) + "\n")
