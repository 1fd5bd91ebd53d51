"""SVG figure: score-potential curve versus the constant benefit-index line.

The hatched band between the two curves shows the improvement room the
potential measure reveals while the benefit index stays flat.  Output is
deterministic SVG (fixed coordinate formatting, no timestamps), and its
bytes are pinned by a golden (tests/golden/compare_gen_figure.svg).
"""

from __future__ import annotations

from typing import Sequence

from .errors import TooFewPoints

WIDTH = 640
HEIGHT = 400
MARGIN_LEFT = 64
MARGIN_RIGHT = 24
MARGIN_TOP = 40
MARGIN_BOTTOM = 56
PLOT_WIDTH = WIDTH - MARGIN_LEFT - MARGIN_RIGHT
PLOT_HEIGHT = HEIGHT - MARGIN_TOP - MARGIN_BOTTOM


def x_position(index: int, count: int) -> float:
    """Pixel x of scenario ``index`` out of ``count`` evenly spaced ones."""
    return MARGIN_LEFT + PLOT_WIDTH * index / (count - 1)


def y_position(value: float) -> float:
    """Pixel y of a percentage value (0..100, origin at the plot bottom)."""
    return MARGIN_TOP + PLOT_HEIGHT * (100 - value) / 100


def _fmt(value: float) -> str:
    return f"{value:.2f}"


def _points_attr(points: Sequence[tuple[float, float]]) -> str:
    return " ".join(f"{_fmt(x)},{_fmt(y)}" for x, y in points)


def _tag(name: str, text: str | None = None, **attributes: float | str) -> str:
    """One SVG element: a number attribute is written by _fmt, a str as it
    is, and ``_`` in a keyword as ``-``; text content is escaped."""
    attrs = "".join(f' {key.replace("_", "-")}="{v if isinstance(v, str) else _fmt(v)}"'
                    for key, v in attributes.items())
    if text is None:
        return f"<{name}{attrs}/>"
    # Imported here: html loads html.entities, a few ms and MB that only a figure needs.
    from html import escape
    return f"<{name}{attrs}>{escape(text, quote=False)}</{name}>"


def render_pop_vs_beni_figure(series: Sequence[tuple[str, float, float]]) -> str:
    """Render (label, pop, beni_attainment) scenarios as an SVG document."""
    if len(series) < 2:
        raise TooFewPoints(len(series))
    for label, pop, beni in series:
        if not (0 <= pop <= 100 and 0 <= beni <= 100):
            raise ValueError(f"series point {label!r} outside [0, 100]")

    n = len(series)
    pop_pts = [(x_position(i, n), y_position(pop)) for i, (_, pop, _) in enumerate(series)]
    beni_pts = [(x_position(i, n), y_position(beni)) for i, (_, _, beni) in enumerate(series)]
    band = pop_pts + beni_pts[::-1]
    right, axis_y = MARGIN_LEFT + PLOT_WIDTH, MARGIN_TOP + PLOT_HEIGHT
    font = {"font_family": "sans-serif", "font_size": "12"}
    axis = {"stroke": "#000000", "stroke_width": "1"}

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{WIDTH}" height="{HEIGHT}" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}">',
        "<defs>",
        '<pattern id="hatch" width="8" height="8" patternUnits="userSpaceOnUse" '
        'patternTransform="rotate(45)">',
        '<line x1="0" y1="0" x2="0" y2="8" stroke="#888888" stroke-width="2"/>',
        "</pattern>",
        "</defs>",
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="#ffffff"/>',
    ]
    for tick in range(0, 101, 25):
        y = y_position(tick)
        parts += [_tag("line", x1=MARGIN_LEFT, y1=y, x2=right, y2=y, stroke="#dddddd",
                       stroke_width="1"),
                  _tag("text", f"{tick}%", x=MARGIN_LEFT - 8, y=y + 4, text_anchor="end", **font)]
    parts += [
        _tag("polygon", id="improvement-band", points=_points_attr(band),
             fill="url(#hatch)", stroke="none"),
        _tag("polyline", id="beni-line", points=_points_attr(beni_pts), fill="none",
             stroke="#444444", stroke_width="2", stroke_dasharray="6 3"),
        _tag("polyline", id="pop-curve", points=_points_attr(pop_pts), fill="none",
             stroke="#000000", stroke_width="2"),
        *(_tag("circle", cx=x, cy=y, r="3", fill="#000000") for x, y in pop_pts),
        *(_tag("text", label, x=x, y=axis_y + 20, text_anchor="middle", **font)
          for (label, _, _), (x, _) in zip(series, pop_pts)),
        _tag("line", x1=MARGIN_LEFT, y1=MARGIN_TOP, x2=MARGIN_LEFT, y2=axis_y, **axis),
        _tag("line", x1=MARGIN_LEFT, y1=axis_y, x2=right, y2=axis_y, **axis),
        _tag("text", "Score potential (solid) vs. benefit-index attainment (dashed); "
             "hatched band = improvement room",
             x=MARGIN_LEFT, y=MARGIN_TOP - 16, font_family="sans-serif", font_size="13"),
        "</svg>",
    ]
    return "\n".join(parts) + "\n"
