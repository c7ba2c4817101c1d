import numpy as np
import pytest

from causalsurv import errors
from causalsurv.svg import CurveSeries, emit_svg


def _series(series_id, days, survival):
    return CurveSeries(series_id, series_id, np.array(days), np.array(survival))


def test_two_arm_plot_has_two_polylines():
    doc = emit_svg(
        [
            _series("arm0", [0, 2, 5], [1.0, 0.6, 0.2]),
            _series("arm1", [0, 3, 5], [1.0, 0.8, 0.5]),
        ]
    )
    assert doc.count("<polyline") == 2
    assert 'id="arm0"' in doc and 'id="arm1"' in doc
    assert "days</text>" in doc
    assert "survival probability</text>" in doc
    assert "<script" not in doc
    assert 'version="1.1"' in doc


def test_identical_arms_render_distinct_ids():
    a = _series("a", [0, 1, 4], [1.0, 0.5, 0.25])
    b = CurveSeries("b", "b", a.days, a.survival)
    doc = emit_svg([a, b])
    assert doc.count("<polyline") == 2
    assert 'id="a"' in doc and 'id="b"' in doc
    # coincident geometry: identical point strings
    points = [line for line in doc.splitlines() if "<polyline" in line]
    coords = [p.split('points="')[1].split('"')[0] for p in points]
    assert coords[0] == coords[1]


def test_single_series_plot():
    doc = emit_svg([_series("only", [0, 7], [1.0, 0.4])])
    assert doc.count("<polyline") == 1
    assert doc.count("<text") >= 3  # axis labels plus legend


def test_empty_input_rejected():
    with pytest.raises(errors.EmptyCurve):
        emit_svg([])
    with pytest.raises(errors.EmptyCurve):
        emit_svg([_series("x", [], [])])


def test_output_is_deterministic():
    series = [_series("s", [0, 2, 9], [1.0, 0.7, 0.1])]
    assert emit_svg(series) == emit_svg(series)


def test_a_series_that_ends_early_runs_flat_to_the_axis_end():
    short = _series("short", [0, 4], [1.0, 0.5])
    doc = emit_svg([short, _series("long", [0, 2, 9], [1.0, 0.7, 0.1])])
    points = [line.split('points="')[1].split('"')[0].split() for line in doc.splitlines()
              if "<polyline" in line]
    # the axis ends at day 9, x = 60 + 564; the short curve keeps y = 16 + 358 * (1 - 0.5)
    assert points[0][-2:] == ["310.67,195.00", "624.00,195.00"]
    assert points[1][-1] == "624.00,338.20"


def test_the_seventh_series_takes_the_first_palette_colour():
    series = [_series(f"s{i}", [0, 1 + i], [1.0, 0.9 - 0.1 * i]) for i in range(7)]
    doc = emit_svg(series)
    strokes = [line.split('stroke="')[1].split('"')[0] for line in doc.splitlines()
               if "<polyline" in line]
    assert len(strokes) == 7 and len(set(strokes[:6])) == 6
    assert strokes[6] == strokes[0] == "#1f77b4"
    legend = [line.split('stroke="')[1].split('"')[0] for line in doc.splitlines()
              if 'stroke-width="2"' in line]
    assert legend == strokes
