"""Tests for the dependency-free SVG line chart renderer."""

import re
import signal
from xml.dom import minidom

import pytest

from labelnoise.svgchart import Series, render_line_chart, write_line_chart


def make_series(label="corrected", dashed=False):
    return Series(label=label, xs=(1.0, 2.0, 3.0), ys=(0.5, 0.7, 0.9), dashed=dashed)


def render(series, **kwargs):
    opts = dict(title="accuracy vs size", x_label="size", y_label="accuracy")
    opts.update(kwargs)
    return render_line_chart(series, **opts)


def test_series_coerces_values_to_float_tuples():
    s = Series(label="a", xs=[1, 2], ys=(0, 1))
    assert s.xs == (1.0, 2.0)
    assert s.ys == (0.0, 1.0)
    assert all(isinstance(v, float) for v in s.xs + s.ys)


@pytest.mark.parametrize("xs, ys", [((1.0, 2.0), (0.5,)), ((), ()), ((1.0,), ())])
def test_series_rejects_mismatched_or_empty_data(xs, ys):
    with pytest.raises(ValueError, match="matching, non-empty"):
        Series(label="bad", xs=xs, ys=ys)


@pytest.mark.parametrize("xs", [iter([1.0]), 1.0, {1.0}])
def test_series_values_are_a_list_or_a_tuple(xs):
    with pytest.raises(ValueError, match="^bad value for 'xs': expected a list of numbers"):
        Series(label="bad", xs=xs, ys=(0.5,))


def test_render_rejects_empty_series_list():
    with pytest.raises(ValueError, match="at least one series"):
        render([])


def test_render_is_deterministic():
    series = [make_series(), make_series(label="naive", dashed=True)]
    assert render(series) == render(series)


def test_render_produces_svg_document_with_labels():
    svg = render([make_series()])
    assert svg.startswith("<svg ")
    assert svg.endswith("</svg>\n")
    assert "accuracy vs size" in svg
    assert ">size<" in svg
    assert ">accuracy<" in svg
    assert ">corrected<" in svg


def test_one_polyline_and_marker_per_point():
    series = [make_series(), make_series(label="naive")]
    svg = render(series)
    assert svg.count("<polyline ") == 2
    assert svg.count("<circle ") == 6


def test_dashed_only_when_requested():
    solid = render([make_series()])
    assert "stroke-dasharray" not in solid
    dashed = render([make_series(dashed=True)])
    # Once for the curve, once for its legend swatch.
    assert dashed.count('stroke-dasharray="7,5"') == 2


def test_series_labels_are_escaped():
    svg = render([Series(label="p < 0.5 & q", xs=(0.0, 1.0), ys=(0.0, 1.0))])
    assert "p &lt; 0.5 &amp; q" in svg
    assert "p < 0.5 & q" not in svg


def test_title_and_axis_labels_are_escaped_and_the_output_parses():
    svg = render([make_series(label="a < b")], title="Accuracy & noise",
                 x_label="size <n>", y_label="p & q")
    assert "Accuracy &amp; noise" in svg
    assert "size &lt;n&gt;" in svg
    assert "p &amp; q" in svg
    assert minidom.parseString(svg).documentElement.tagName == "svg"


def test_log_axis_requires_positive_x():
    s = Series(label="a", xs=(0.0, 1.0), ys=(0.0, 1.0))
    with pytest.raises(ValueError, match="positive x"):
        render([s], x_log=True)


def test_log_axis_ticks_are_powers_of_ten():
    s = Series(label="a", xs=(1.0, 10.0, 100.0, 1000.0), ys=(0.1, 0.2, 0.3, 0.4))
    svg = render([s], x_log=True)
    for tick in (">1<", ">10<", ">100<", ">1000<"):
        assert tick in svg


def x_tick_labels(svg):
    return [t.firstChild.data for t in minidom.parseString(svg).getElementsByTagName("text")
            if t.getAttribute("font-size") == "12" and t.getAttribute("text-anchor") == "middle"]


@pytest.mark.parametrize("xs, labels", [
    ((200.0, 2000.0, 20000.0), ["1000", "10000"]),  # the default fig2 sizes: powers of ten alone
    ((100.0, 200.0, 400.0), ["100", "200"]),  # one power of ten: 2x and 5x join it
    ((200.0, 300.0), ["200", "300"]),  # none, nor a 2x and 5x pair: every mantissa
])
def test_log_axis_labels_at_least_two_x_ticks(xs, labels):
    s = Series(label="a", xs=xs, ys=tuple(0.1 * (i + 1) for i in range(len(xs))))
    assert x_tick_labels(render([s], x_log=True)) == labels


def test_single_point_series_renders():
    svg = render([Series(label="dot", xs=(5.0,), ys=(0.5,))])
    assert "<polyline " in svg
    assert "<circle " in svg


def test_constant_series_renders():
    svg = render([Series(label="flat", xs=(1.0, 2.0, 3.0), ys=(0.7, 0.7, 0.7))])
    assert svg.count("<circle ") == 3


@pytest.mark.parametrize("xs, ys", [
    ((1e300,), (0.5,)),  # 1e300 +- 0.5 is 1e300: the span was 0 and the scale divided by it
    ((1.0, 2.0), (1e300, 1e300)),
    ((-1e300,), (-1e300,)),
    ((2.0**52,), (0.5,)),  # +- 0.5 came to an ulp or two, and a tick step too small to add looped
    ((2.0**52 + 1,), (0.5,)),
    ((1.0,), (2.0**48 + 0.0625,)),
    ((2.0**52, 2.0**52 + 2), (0.5, 0.6)),
    ((-1e308, 1e308), (0.5, 0.6)),  # a span past the largest float overflowed to inf
    ((1.0, 2.0), (-1e308, 1e308)),
    ((1.7976931348623157e308,), (0.5,)),  # the largest float: its widening reached inf
])
def test_a_large_narrow_axis_renders_inside_the_plot(xs, ys):
    def expire(signum, frame):  # a tick loop that never ends grows its list by ~200 MB/s
        raise TimeoutError("render_line_chart ran for over a second")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, 1.0)
    try:
        svg = render([Series(label="big", xs=xs, ys=ys)])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    points = re.findall(r'<circle cx="([^"]+)" cy="([^"]+)"', svg)
    assert len(points) == len(xs)
    for cx, cy in points:  # inside the plot rectangle of a 720x480 chart
        assert 72 <= float(cx) <= 720 - 180 and 48 <= float(cy) <= 480 - 58


def test_write_line_chart_matches_render(tmp_path):
    series = [make_series(), make_series(label="naive", dashed=True)]
    path = tmp_path / "chart.svg"
    write_line_chart(path, series, title="t", x_label="x", y_label="y")
    expected = render_line_chart(series, title="t", x_label="x", y_label="y")
    assert path.read_text() == expected
