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
_TICKS = (0.0, 0.25, 0.5, 0.75, 1.0)

# every <line> and <text> element; _at formats their coordinates
_LINE = '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="%s" stroke-width="%s"/>'
_TEXT = '<text x="%s" y="%s" font-size="%s" font-family="sans-serif"%s>%s</text>'
_END, _MIDDLE = ' text-anchor="end"', ' text-anchor="middle"'


class CurveSeries(NamedTuple):
    series_id: str
    label: str
    days: np.ndarray
    survival: np.ndarray


def _at(value):
    """A coordinate as drawn: an int as it is, a float to two places."""
    return "%.2f" % value if isinstance(value, float) else value


def _line(x1, y1, x2, y2, stroke="#333333", width=1):
    return _LINE % (_at(x1), _at(y1), _at(x2), _at(y2), stroke, width)


def _text(x, y, body, size=11, attrs=""):
    return _TEXT % (_at(x), _at(y), size, attrs, body)


def emit_svg(curves) -> str:
    """Render one polyline step path per series, with axes and a legend."""
    curves = list(curves)
    if not curves or any(len(c.days) == 0 for c in curves):
        raise EmptyCurve("nothing to plot")

    x_max = max(max(int(np.max(c.days)) for c in curves), 1)
    plot_w = _WIDTH - _LEFT - _RIGHT
    plot_h = _HEIGHT - _TOP - _BOTTOM

    def sx(day):
        return _LEFT + plot_w * (day / x_max)

    def sy(prob):
        return _TOP + plot_h * (1.0 - prob)

    base, mid = sy(0.0), _TOP + plot_h / 2
    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_WIDTH}" height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect x="0" y="0" width="{_WIDTH}" height="{_HEIGHT}" fill="#ffffff"/>',
        _line(_LEFT, base, _WIDTH - _RIGHT, base),
        _line(_LEFT, base, _LEFT, sy(1.0)),
    ]
    for frac in _TICKS:
        y = sy(frac)
        parts += _line(_LEFT - 4, y, _LEFT, y), _text(_LEFT - 8, y + 4, f"{frac:g}", attrs=_END)
    for frac in _TICKS:
        day = frac * x_max
        x = sx(day)
        parts += _line(x, base, x, base + 4), _text(x, base + 18, int(round(day)), attrs=_MIDDLE)
    parts.append(_text(_LEFT + plot_w / 2, _HEIGHT - 10, "days", 12, _MIDDLE))
    rotate = ' transform="rotate(-90 14 %.2f)"' % mid
    parts.append(_text(14, mid, "survival probability", 12, _MIDDLE + rotate))

    colors = [_PALETTE[i % len(_PALETTE)] for i in range(len(curves))]
    for c, color in zip(curves, colors):
        # each step doubled, (x0, y0), (x1, y0), (x1, y1), ..., then flat to the axis end
        days = np.asarray(c.days, dtype=np.float64).repeat(2)[1:]
        survival = np.asarray(c.survival, dtype=np.float64).repeat(2)[:-1]
        if days[-1] < x_max:
            days, survival = np.append(days, x_max), np.append(survival, survival[-1])
        xy = np.column_stack((sx(days), sy(survival))).ravel().tolist()
        coords = " ".join(["%.2f,%.2f"] * days.size) % tuple(xy)
        parts.append(
            f'<polyline id="{c.series_id}" points="{coords}" fill="none" '
            f'stroke="{color}" stroke-width="1.5"/>'
        )

    # legend: stacked rows in the top-right corner, one per series
    x0 = _WIDTH - _RIGHT - 150
    for i, (c, color) in enumerate(zip(curves, colors)):
        y = _TOP + 14 + 16 * i
        parts += _line(x0, y - 4, x0 + 22, y - 4, color, 2), _text(x0 + 28, y, c.label)

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
