"""Deterministic SVG drawings of folded layouts and quotient charts.

The geometry kernel works in mathematical coordinates (y up); this
module flips the y axis at emission time only.  Output sticks to a
small SVG 1.1 subset (path, polygon, circle, line) with no scripts or
external references, and identical inputs always produce identical
bytes.
"""

from __future__ import annotations

import math
import sys
from operator import attrgetter
from typing import TYPE_CHECKING, List, Sequence, Tuple

from .errors import InvalidInputError, ParameterError, _expect_type, _Record
from .fold_core import FoldedLayout, Point

if TYPE_CHECKING:
    from .formulas import RatioReport

__all__ = ["RenderOptions", "render_table_figure", "to_svg"]

# fixed pastel fills cycled by layer so stacking order stays readable
_LAYER_FILLS = (
    "#a6cee3",
    "#fdbf6f",
    "#b2df8a",
    "#cab2d6",
    "#fb9a99",
    "#ffff99",
    "#d9d9d9",
    "#ccebc5",
)
_PANEL_STROKE = "#1f3044"
_CREASE_STROKE = "#c23b22"
_CENTERLINE_STROKE = "#2a62a8"
_CIRCLE_STROKE = "#5b5b5b"

_SERIES_STROKES = (
    "#1f77b4",
    "#d62728",
    "#2ca02c",
    "#9467bd",
    "#ff7f0e",
    "#8c564b",
    "#17becf",
    "#7f7f7f",
    "#bcbd22",
)


class RenderOptions(_Record):
    """Switches for layout drawings.

    ``epsilon_display`` shifts each panel by its layer index times this
    amount, so edges that coincide exactly in the fold stay visible as
    a stack.  ``scale`` is document units per length unit.
    """

    _fields = __match_args__ = (
        "epsilon_display", "show_creases", "show_circumcircle", "show_centerline", "scale")
    epsilon_display: float
    show_creases: bool
    show_circumcircle: bool
    show_centerline: bool
    scale: float

    def __init__(
        self,
        epsilon_display: float = 0.0,
        show_creases: bool = True,
        show_circumcircle: bool = False,
        show_centerline: bool = False,
        scale: float = 40.0,
    ):
        if isinstance(scale, bool) or not (isinstance(scale, (int, float)) and scale > 0):
            raise ParameterError("scale must be a positive number")
        if isinstance(epsilon_display, bool) or not (
            isinstance(epsilon_display, (int, float)) and epsilon_display >= 0
        ):
            raise ParameterError("epsilon_display must be nonnegative")
        # compared exactly, so an int past the float range counts as inf
        for name, value in (("scale", scale), ("epsilon_display", epsilon_display)):
            if value > sys.float_info.max:
                raise ParameterError("%s must be finite" % name)
        # to_svg reads the flags by truth value, which any object has
        for name, value in (("show_creases", show_creases),
                            ("show_circumcircle", show_circumcircle),
                            ("show_centerline", show_centerline)):
            if not isinstance(value, bool):
                raise ParameterError("%s must be a bool" % name)
        self.__dict__.update(epsilon_display=epsilon_display, show_creases=show_creases,
                             show_circumcircle=show_circumcircle, show_centerline=show_centerline,
                             scale=scale)


def _num(x: float) -> str:
    # + 0.0 turns -0.0 into 0.0, so a zero never prints as "-0"
    return "%.6g" % (x + 0.0)


def _centerline_center(layout: FoldedLayout) -> Point:
    starts = [seg[0] for seg in layout.centerline]
    n = float(len(starts))
    return Point(sum(p[0] for p in starts) / n, sum(p[1] for p in starts) / n)


def to_svg(layout: FoldedLayout, options: RenderOptions = RenderOptions()) -> str:
    """Draw a folded layout as an SVG document.

    Panels paint in ascending layer order so upper layers occlude
    lower ones; the viewport is the drawing bounding box plus a 5%
    margin on every side.
    """
    _expect_type(layout, FoldedLayout)
    _expect_type(options, RenderOptions)
    if not layout.panels:
        raise InvalidInputError("cannot render a layout with no panels")
    order = sorted(layout.panels, key=attrgetter("layer", "index"))
    eps = options.epsilon_display
    s = options.scale
    # the y axis flips to screen convention by the factor -s, and only
    # where a coordinate is written
    ns = -s
    # one template per layer fill; each coordinate is written as %.6g of
    # its scaled value plus 0.0, as _num writes it
    polygon = [
        '<polygon points="%%.6g,%%.6g %%.6g,%%.6g %%.6g,%%.6g %%.6g,%%.6g" '
        'fill="%s" fill-opacity="0.85" stroke="%s" '
        'stroke-width="%s" stroke-linejoin="round"/>' % (fill, _PANEL_STROKE, _num(0.025 * s))
        for fill in _LAYER_FILLS
    ]
    fills = len(polygon)

    xs: List[float] = []
    ys: List[float] = []
    polygons = []
    add_polygon = polygons.append
    for panel in order:
        layer = panel.layer
        dx = eps * layer
        # every corner coordinate is shifted by dx, y as well as x
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = panel.vertices
        x0 += dx; y0 += dx; x1 += dx; y1 += dx
        x2 += dx; y2 += dx; x3 += dx; y3 += dx
        xs += (x0, x1, x2, x3)
        ys += (y0, y1, y2, y3)
        add_polygon(polygon[layer % fills] % (
            s * x0 + 0.0, ns * y0 + 0.0, s * x1 + 0.0, ns * y1 + 0.0,
            s * x2 + 0.0, ns * y2 + 0.0, s * x3 + 0.0, ns * y3 + 0.0))
    if options.show_circumcircle:
        center = _centerline_center(layout)
        radius = max(
            math.hypot(v[0] - center[0], v[1] - center[1])
            for panel in layout.panels
            for v in panel.vertices
        )
        xs += [center[0] - radius, center[0] + radius]
        ys += [center[1] - radius, center[1] + radius]

    min_x, max_x = min(xs), max(xs)
    min_y, max_y = min(ys), max(ys)
    pad_x = 0.05 * max(max_x - min_x, 1e-9)
    pad_y = 0.05 * max(max_y - min_y, 1e-9)
    min_x -= pad_x
    max_x += pad_x
    min_y -= pad_y
    max_y += pad_y

    view_w = s * (max_x - min_x)
    view_h = s * (max_y - min_y)
    # after the y flip the top of the viewport is -max_y
    viewport = (s * min_x, -s * max_y, view_w, view_h)
    # a finite scale can still overflow once it meets the drawing's extent
    if not all(math.isfinite(v) for v in viewport + (s * max_x, -s * min_y)):
        raise ParameterError("scale %r gives a viewport that is not finite" % s)
    view = " ".join(_num(v) for v in viewport)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%s" height="%s" viewBox="%s">' % (_num(view_w), _num(view_h), view),
    ]

    if options.show_circumcircle:
        parts.append(
            '<circle cx="%s" cy="%s" r="%s" fill="none" stroke="%s" '
            'stroke-width="%s" stroke-dasharray="%s %s"/>'
            % (_num(s * center[0]), _num(ns * center[1]), _num(s * radius), _CIRCLE_STROKE,
               _num(0.02 * s), _num(0.1 * s), _num(0.07 * s))
        )

    parts += polygons

    if options.show_creases:
        line = (
            '<line x1="%%.6g" y1="%%.6g" x2="%%.6g" y2="%%.6g" stroke="%s" '
            'stroke-width="%s" stroke-dasharray="%s %s"/>'
            % (_CREASE_STROKE, _num(0.02 * s), _num(0.08 * s), _num(0.05 * s))
        )
        add = parts.append
        # each crease is side 1 of the panel before it; an open strip's
        # last panel ends in a cut, not a crease
        for panel in layout.panels if layout.closed else layout.panels[:-1]:
            _, (ax, ay), (bx, by), _ = panel.vertices
            add(line % (s * ax + 0.0, ns * ay + 0.0, s * bx + 0.0, ns * by + 0.0))

    if options.show_centerline:
        line = (
            '<line x1="%%.6g" y1="%%.6g" x2="%%.6g" y2="%%.6g" stroke="%s" stroke-width="%s"/>'
            % (_CENTERLINE_STROKE, _num(0.03 * s))
        )
        for (ax, ay), (bx, by) in layout.centerline:
            parts.append(line % (s * ax + 0.0, ns * ay + 0.0, s * bx + 0.0, ns * by + 0.0))

    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def _report_x(report: RatioReport) -> float:
    # fixed folds have no family parameter; place the shorts at their
    # knot's q and the rectangle fold at its crossing count
    if report.family.parameter is not None:
        return float(report.family.parameter)
    if report.params is not None:
        return float(report.params.q)
    return float(report.crossings)


def render_table_figure(reports: Sequence[RatioReport]) -> str:
    """Chart kusner quotients against the family parameter.

    One series per (family, presentation) pair, with horizontal guide
    lines at the limit constants of the odd wraps and of the even wraps.
    """
    # imported here: formulas imports constructions, which drawing a layout never needs
    from .formulas import RatioReport, limit_constant

    if not isinstance(reports, (list, tuple)):
        raise InvalidInputError("expected a list of RatioReport, got %s" % type(reports).__name__)
    if not reports:
        raise InvalidInputError("cannot chart an empty report list")

    series: dict = {}
    for report in reports:
        _expect_type(report, RatioReport)
        key = (report.family.tag, report.presentation)
        series.setdefault(key, []).append((_report_x(report), report.quotient))
    for points in series.values():
        points.sort()

    all_x = [x for pts in series.values() for x, _ in pts]
    all_y = [y for pts in series.values() for _, y in pts]

    guides = (limit_constant("odd_wrap"), limit_constant("even_wrap_plus2"))
    all_y += list(guides)

    min_x, max_x = min(all_x), max(all_x)
    min_y, max_y = min(all_y), max(all_y)
    span_x = max(max_x - min_x, 1e-9)
    span_y = max(max_y - min_y, 1e-9)

    width, height, margin = 640.0, 400.0, 40.0

    def place(x: float, y: float) -> Tuple[str, str]:
        px = margin + (x - min_x) / span_x * (width - 2 * margin)
        py = height - margin - (y - min_y) / span_y * (height - 2 * margin)
        return _num(px), _num(py)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        '<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        'width="%s" height="%s" viewBox="0 0 %s %s">' % (_num(width), _num(height), _num(width), _num(height)),
    ]

    # axes
    ox, oy = place(min_x, min_y)
    x_end, _ = place(max_x, min_y)
    _, y_end = place(min_x, max_y)
    parts.append(
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#333333" stroke-width="1"/>'
        % (ox, oy, x_end, oy)
    )
    parts.append(
        '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#333333" stroke-width="1"/>'
        % (ox, oy, ox, y_end)
    )

    for guide in guides:
        gx1, gy = place(min_x, guide)
        gx2, _ = place(max_x, guide)
        parts.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s" stroke="#888888" '
            'stroke-width="1" stroke-dasharray="6 4"/>' % (gx1, gy, gx2, gy)
        )

    for rank, key in enumerate(sorted(series)):
        points = series[key]
        stroke = _SERIES_STROKES[rank % len(_SERIES_STROKES)]
        if len(points) > 1:
            steps = []
            for i, (x, y) in enumerate(points):
                px, py = place(x, y)
                steps.append("%s%s %s" % ("M" if i == 0 else "L", px, py))
            parts.append(
                '<path d="%s" fill="none" stroke="%s" stroke-width="1.5"/>'
                % (" ".join(steps), stroke)
            )
        for x, y in points:
            px, py = place(x, y)
            parts.append(
                '<circle cx="%s" cy="%s" r="3" fill="%s"/>' % (px, py, stroke)
            )

    parts.append("</svg>")
    return "\n".join(parts) + "\n"
