"""Static SVG 1.1 step plots for survival curves.

Pure string assembly, no scripting, fixed-precision coordinates so output
is byte-stable across runs and platforms.
"""

from typing import NamedTuple

import numpy as np

from .errors import EmptyCurve

__all__ = ["CurveSeries", "emit_svg"]

_PALETTE = ("#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b")

_WIDTH, _HEIGHT = 640, 420
_LEFT, _RIGHT, _TOP, _BOTTOM = 60, 16, 16, 46


class CurveSeries(NamedTuple):
    series_id: str
    label: str
    days: np.ndarray
    survival: np.ndarray


def emit_svg(curves) -> str:
    """Render one polyline step path per series, with axes and a legend."""
    curves = list(curves)
    if not curves or any(len(c.days) == 0 for c in curves):
        raise EmptyCurve("nothing to plot")

    x_max = max(int(np.max(c.days)) for c in curves)
    x_max = max(x_max, 1)
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(day):
        return _LEFT + plot_w * (day / x_max)

    def sy(prob):
        return _TOP + plot_h * (1.0 - prob)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
    ]

    # axes
    parts.append(
        f'<line x1="{_LEFT}" y1="{sy(0.0):.2f}" x2="{_WIDTH - _RIGHT}" '
        f'y2="{sy(0.0):.2f}" stroke="#333333" stroke-width="1"/>'
    )
    parts.append(
        f'<line x1="{_LEFT}" y1="{sy(0.0):.2f}" x2="{_LEFT}" '
        f'y2="{sy(1.0):.2f}" stroke="#333333" stroke-width="1"/>'
    )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        y = sy(frac)
        parts.append(
            f'<line x1="{_LEFT - 4}" y1="{y:.2f}" x2="{_LEFT}" y2="{y:.2f}" '
            f'stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{_LEFT - 8}" y="{y + 4:.2f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="end">{frac:g}</text>'
        )
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        day = frac * x_max
        x = sx(day)
        parts.append(
            f'<line x1="{x:.2f}" y1="{sy(0.0):.2f}" x2="{x:.2f}" '
            f'y2="{sy(0.0) + 4:.2f}" stroke="#333333" stroke-width="1"/>'
        )
        parts.append(
            f'<text x="{x:.2f}" y="{sy(0.0) + 18:.2f}" font-size="11" '
            f'font-family="sans-serif" text-anchor="middle">{int(round(day))}</text>'
        )
    parts.append(
        f'<text x="{_LEFT + plot_w / 2:.2f}" y="{_HEIGHT - 10}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle">days</text>'
    )
    parts.append(
        f'<text x="14" y="{_TOP + plot_h / 2:.2f}" font-size="12" '
        f'font-family="sans-serif" text-anchor="middle" '
        f'transform="rotate(-90 14 {_TOP + plot_h / 2:.2f})">survival probability</text>'
    )

    # step paths
    for i, c in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        # sx and sy elementwise, each step doubled: (x0, y0), (x1, y0), (x1, y1), ...
        days = np.asarray(c.days, dtype=np.float64)
        xs = np.repeat(sx(days), 2)[1:].tolist()
        ys = np.repeat(sy(np.asarray(c.survival, dtype=np.float64)), 2)[:-1].tolist()
        if days[-1] < x_max:
            xs.append(sx(x_max))
            ys.append(ys[-1])
        coords = " ".join(map("{:.2f},{:.2f}".format, xs, ys))
        parts.append(
            f'<polyline id="{c.series_id}" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )

    # legend: stacked rows in the top-right corner, one per series
    for i, c in enumerate(curves):
        color = _PALETTE[i % len(_PALETTE)]
        y = _TOP + 14 + 16 * i
        x0 = _WIDTH - _RIGHT - 150
        parts.append(
            f'<line x1="{x0}" y1="{y - 4}" x2="{x0 + 22}" y2="{y - 4}" '
            f'stroke="{color}" stroke-width="2"/>'
        )
        parts.append(
            f'<text x="{x0 + 28}" y="{y}" font-size="11" '
            f'font-family="sans-serif">{c.label}</text>'
        )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
