"""SVG chart generation edge cases."""

import math

import pytest

from hetassoc.charts import line_chart


def test_basic_chart_structure():
    svg = line_chart([("a", [1, 2, 3], [0.1, 0.5, 0.2]),
                      ("b", [1, 2, 3], [0.4, 0.3, 0.6])],
                     title="demo", xlabel="x", ylabel="y")
    assert svg.startswith("<svg")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count("<polyline") == 2
    assert "demo" in svg and ">a<" in svg and ">b<" in svg


def test_nan_breaks_polyline():
    svg = line_chart([("gappy", [1, 2, 3, 4], [0.1, math.nan, 0.3, 0.4])],
                     title="t", xlabel="x", ylabel="y")
    # the nan splits the series into two segments
    assert svg.count("<polyline") == 2


def test_empty_series_still_renders():
    svg = line_chart([("nothing", [], [])], title="t", xlabel="x", ylabel="y")
    assert svg.startswith("<svg")
    assert "<polyline" not in svg


def test_constant_series():
    svg = line_chart([("flat", [1, 2], [1.0, 1.0])], title="t", xlabel="x",
                     ylabel="y")
    assert "<polyline" in svg


@pytest.mark.parametrize("xs, ys", [([1e17], [1.0]), ([1, 2], [0.3, 0.30000000000000004]),
                                    ([1, 2], [1e-30, 2e-30])],
                         ids=["one-point-at-1e17", "y-within-one-ulp", "tiny-y"])
def test_degenerate_range_at_any_magnitude(xs, ys):
    """A chart renders at any magnitude: a range lost in the rounding of
    its magnitude is widened so that its ticks step through it (lo + 1 is
    lo itself at 1e17, and ticks a third of an ulp apart would never
    advance), and ticks 1e-31 apart end at the top of their range, not at
    1e-12. Ticks are rounded relative to their step, so a range of tiny
    values keeps its y labels (`text-anchor="end"`) and does not round
    them to 0."""
    svg = line_chart([("a", xs, ys)], title="t", xlabel="x", ylabel="y")
    assert svg.rstrip().endswith("</svg>")
    assert svg.count('text-anchor="end"') >= 2
