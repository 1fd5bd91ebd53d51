"""SVG figure: geometry, hatching, and the shaded-area quadrature check."""

from __future__ import annotations

import os
import re
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
import pytest

import scorepotential
from scorepotential import TooFewPoints, render_pop_vs_beni_figure
from scorepotential.figure import x_position, y_position

PAPER_SERIES = [("base", 74.0, 75.0), ("shifted", 97.0, 75.0), ("top", 100.0, 75.0)]


def polygon_points(svg: str, element_id: str) -> list[tuple[float, float]]:
    match = re.search(
        rf'<(?:polygon|polyline) id="{element_id}" points="([^"]*)"', svg
    )
    assert match is not None, f"element {element_id} missing"
    return [
        (float(x), float(y))
        for x, y in (pair.split(",") for pair in match.group(1).split())
    ]


def shoelace_area(points: list[tuple[float, float]]) -> float:
    total = 0.0
    for (x1, y1), (x2, y2) in zip(points, points[1:] + points[:1]):
        total += x1 * y2 - x2 * y1
    return abs(total) / 2


def test_paper_scenarios_render_the_expected_band():
    svg = render_pop_vs_beni_figure(PAPER_SERIES)
    band = polygon_points(svg, "improvement-band")
    ys = [y for _, y in band]
    # The band covers the 75%..100% range the potential curve opens up.
    assert min(ys) == pytest.approx(y_position(100.0))
    assert min(ys) <= y_position(100.0) <= y_position(75.0) <= max(ys)
    assert 'fill="url(#hatch)"' in svg
    assert '<pattern id="hatch"' in svg

    pop = polygon_points(svg, "pop-curve")
    assert pop == [
        (pytest.approx(x_position(i, 3)), pytest.approx(y_position(v)))
        for i, v in enumerate([74.0, 97.0, 100.0])
    ]
    beni = polygon_points(svg, "beni-line")
    assert all(y == pytest.approx(y_position(75.0)) for _, y in beni)


def test_identical_curves_give_zero_area():
    svg = render_pop_vs_beni_figure([("a", 80.0, 80.0), ("b", 80.0, 80.0)])
    assert shoelace_area(polygon_points(svg, "improvement-band")) == 0.0


def test_band_area_matches_trapezoidal_quadrature():
    series = [("s1", 60.0, 50.0), ("s2", 75.0, 50.0), ("s3", 90.0, 50.0), ("s4", 100.0, 50.0)]
    svg = render_pop_vs_beni_figure(series)
    area = shoelace_area(polygon_points(svg, "improvement-band"))

    xs = np.array([x_position(i, len(series)) for i in range(len(series))])
    gap = np.array([y_position(beni) - y_position(pop) for _, pop, beni in series])
    expected = float(np.trapezoid(gap, xs))
    assert area == pytest.approx(expected, rel=1e-9)


def test_axes_are_labeled_in_percent():
    svg = render_pop_vs_beni_figure(PAPER_SERIES)
    for tick in ("0%", "25%", "50%", "75%", "100%"):
        assert f">{tick}</text>" in svg


def test_too_few_points():
    with pytest.raises(TooFewPoints):
        render_pop_vs_beni_figure([("only", 74.0, 75.0)])


def test_values_outside_percent_range_rejected():
    with pytest.raises(ValueError):
        render_pop_vs_beni_figure([("a", 120.0, 75.0), ("b", 80.0, 75.0)])


def test_output_is_deterministic():
    a = render_pop_vs_beni_figure(PAPER_SERIES)
    b = render_pop_vs_beni_figure(PAPER_SERIES)
    assert a == b


def test_labels_are_escaped():
    svg = render_pop_vs_beni_figure([("a<b&c", 50.0, 40.0), ("d", 60.0, 40.0)])
    assert "a&lt;b&amp;c" in svg
    # Text content needs no quote escaping; html.escape(quote=False) leaves " alone.
    svg = render_pop_vs_beni_figure([('x>y"z', 50.0, 40.0), ("d", 60.0, 40.0)])
    assert 'x&gt;y"z</text>' in svg


def test_a_label_with_markup_characters_leaves_the_document_well_formed():
    label = """a&b<c>d"e'f"""
    svg = render_pop_vs_beni_figure([(label, 50.0, 40.0), ("d", 60.0, 40.0)])
    root = ET.fromstring(svg.encode("utf-8"))
    texts = [t.text for t in root.iter("{http://www.w3.org/2000/svg}text")]
    assert label in texts


def test_html_is_imported_by_a_figure_not_by_the_package():
    code = ("import sys, scorepotential as s; assert 'html' not in sys.modules; "
            "s.render_pop_vs_beni_figure([('a', 1.0, 1.0), ('b', 2.0, 2.0)]); "
            "assert 'html' in sys.modules")
    env = {**os.environ, "PYTHONPATH": str(Path(scorepotential.__file__).resolve().parents[1])}
    subprocess.run([sys.executable, "-c", code], check=True, env=env, timeout=60)
