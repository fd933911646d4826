"""Tests for the SVG rendering of layouts and quotient charts."""

import math
import xml.etree.ElementTree as ET

import pytest

from ribbonfold.constructions import FamilyId, build
from ribbonfold.errors import InvalidInputError, ParameterError
from ribbonfold.fold_core import FoldedLayout, layout, layout_from_centerline, unfold
from ribbonfold.formulas import ratio_report, ratio_reports
from ribbonfold.render import RenderOptions, render_table_figure, to_svg


def svg_children(text):
    root = ET.fromstring(text)
    return [el.tag.split("}")[-1] for el in root]


def heptagon_layout():
    return layout(build(FamilyId("odd_wrap", 3)))


def test_output_parses_as_xml():
    svg = to_svg(heptagon_layout(), RenderOptions(show_circumcircle=True))
    root = ET.fromstring(svg)
    assert root.tag.endswith("svg")
    assert root.get("viewBox")


def test_polygon_count_matches_panels():
    lay = heptagon_layout()
    svg = to_svg(lay, RenderOptions(show_creases=False))
    assert svg_children(svg).count("polygon") == len(lay.panels)


def test_every_polygon_has_four_vertices():
    svg = to_svg(heptagon_layout())
    for el in ET.fromstring(svg):
        if el.tag.endswith("polygon"):
            assert len(el.get("points").split()) == 4


def test_element_subset():
    svg = to_svg(
        heptagon_layout(),
        RenderOptions(show_circumcircle=True, show_centerline=True),
    )
    assert set(svg_children(svg)) <= {"polygon", "line", "circle", "path"}
    assert "<script" not in svg and "href" not in svg


def test_panels_paint_in_layer_order():
    lay = layout(build(FamilyId("rect_74")))
    svg = to_svg(lay, RenderOptions(show_creases=False))
    # recover each polygon's layer by matching its fill back to panels
    order = sorted(lay.panels, key=lambda p: (p.layer, p.index))
    layers = [p.layer for p in order]
    assert layers == sorted(layers)
    assert svg_children(svg).count("polygon") == len(lay.panels)


def test_byte_determinism():
    opts = RenderOptions(show_circumcircle=True, show_centerline=True, epsilon_display=0.01)
    a = to_svg(layout(build(FamilyId("odd_wrap", 4))), opts)
    b = to_svg(layout(build(FamilyId("odd_wrap", 4))), opts)
    assert a == b


def test_empty_layout_rejected():
    empty = FoldedLayout(panels=(), centerline=())
    with pytest.raises(InvalidInputError):
        to_svg(empty)


def test_single_panel_is_one_rectangle():
    strip = layout_from_centerline([(0, 0), (3, 0)], 1.0, [0], closed=False)
    svg = to_svg(strip)
    assert svg_children(svg) == ["polygon"]
    points = [
        tuple(float(v) for v in pair.split(","))
        for pair in ET.fromstring(svg)[0].get("points").split()
    ]
    xs = sorted({round(x, 9) for x, _ in points})
    ys = sorted({round(y, 9) for _, y in points})
    assert xs == [0.0, 120.0] and ys == [-20.0, 20.0]


def test_viewbox_adds_five_percent_margin():
    lay = heptagon_layout()
    svg = to_svg(lay, RenderOptions(show_creases=False, scale=1.0))
    min_x, min_y, max_x, max_y = lay.bounding_box()
    # emitted numbers carry 6 significant digits
    view = [float(v) for v in ET.fromstring(svg).get("viewBox").split()]
    assert view[2] == pytest.approx(1.1 * (max_x - min_x), rel=1e-5)
    assert view[3] == pytest.approx(1.1 * (max_y - min_y), rel=1e-5)
    assert view[0] == pytest.approx(min_x - 0.05 * (max_x - min_x), rel=1e-5)
    # y flips at emission, so the top of the box is the negated maximum
    assert view[1] == pytest.approx(-(max_y + 0.05 * (max_y - min_y)), rel=1e-5)


def test_circumcircle_touches_outer_corners():
    lay = heptagon_layout()
    svg = to_svg(lay, RenderOptions(show_circumcircle=True, scale=1.0))
    circles = [el for el in ET.fromstring(svg) if el.tag.endswith("circle")]
    assert len(circles) == 1
    radius = float(circles[0].get("r"))
    assert radius == pytest.approx(1.0 / (2.0 * math.sin(math.pi / 7)), rel=1e-4)


def test_crease_lines_follow_presentation():
    closed = to_svg(layout(build(FamilyId("odd_wrap", 3))), RenderOptions())
    assert svg_children(closed).count("line") == 7
    program = build(FamilyId("odd_wrap", 3), presentation="truncated")
    truncated = to_svg(layout(program), RenderOptions())
    assert svg_children(truncated).count("line") == 5


def test_sourceless_closed_layout_draws_its_seam_crease():
    triangle = layout_from_centerline([(0, 0), (4, 0), (2, 3)], 0.2, [0, 1, 2], closed=True)
    assert svg_children(to_svg(triangle)).count("line") == 3
    relaid = layout(unfold(triangle))
    assert svg_children(to_svg(relaid)).count("line") == 3
    strip = layout_from_centerline([(0, 0), (4, 0), (2, 3)], 0.2, [0, 1], closed=False)
    assert svg_children(to_svg(strip)).count("line") == 1


def test_centerline_lines_counted():
    lay = heptagon_layout()
    svg = to_svg(lay, RenderOptions(show_creases=False, show_centerline=True))
    assert svg_children(svg).count("line") == len(lay.centerline)


def test_epsilon_display_separates_coincident_panels():
    lay = layout(build(FamilyId("rect_74")))
    flat = to_svg(lay, RenderOptions(show_creases=False))
    spread = to_svg(lay, RenderOptions(show_creases=False, epsilon_display=0.05))

    def point_sets(svg):
        return [el.get("points") for el in ET.fromstring(svg) if el.tag.endswith("polygon")]

    assert len(set(point_sets(flat))) < len(lay.panels)
    assert len(set(point_sets(spread))) == len(lay.panels)


def test_options_validate():
    with pytest.raises(ParameterError):
        RenderOptions(scale=0.0)
    with pytest.raises(ParameterError):
        RenderOptions(scale=-2.0)
    with pytest.raises(ParameterError):
        RenderOptions(epsilon_display=-0.1)
    # an infinite size once drew "inf" points and all-nan polygons
    with pytest.raises(ParameterError):
        RenderOptions(scale=math.inf)
    with pytest.raises(ParameterError):
        RenderOptions(epsilon_display=math.inf)
    # an int past the float range once raised OverflowError, and a bool
    # was once taken as the number it equals
    for kw in ({"scale": 10**400}, {"epsilon_display": 10**400},
               {"scale": True}, {"epsilon_display": False}):
        with pytest.raises(ParameterError):
            RenderOptions(**kw)


def test_overflowing_viewport_is_rejected():
    # a finite scale that overflows the drawing's extent once drew width="inf"
    with pytest.raises(ParameterError):
        to_svg(heptagon_layout(), RenderOptions(scale=1e308))
    with pytest.raises(ParameterError):
        to_svg(heptagon_layout(), RenderOptions(scale=1e300, epsilon_display=1e10))
    # a layer offset that overflows once blamed the default scale alone
    with pytest.raises(ParameterError, match=r"^scale 40\.0 with epsilon_display 1e\+308 "):
        to_svg(heptagon_layout(), RenderOptions(epsilon_display=1e308))


def test_chart_rejects_empty_list():
    with pytest.raises(InvalidInputError):
        render_table_figure([])


def test_chart_single_report_is_single_point():
    chart = render_table_figure([ratio_report(FamilyId("odd_wrap", 2))])
    kinds = svg_children(chart)
    assert kinds.count("circle") == 1
    assert kinds.count("path") == 0
    # two axes plus the two asymptote guides
    assert kinds.count("line") == 4


def test_chart_series_and_points():
    reports = ratio_reports(12, 25)
    chart = render_table_figure(reports)
    ET.fromstring(chart)
    kinds = svg_children(chart)
    assert kinds.count("circle") == len(reports)
    # six parametric series get connecting paths; fixed folds are lone points
    assert kinds.count("path") == 6


def test_chart_determinism():
    reports = ratio_reports(8, 15)
    assert render_table_figure(reports) == render_table_figure(reports)


def test_chart_guides_sit_at_limits():
    reports = [
        ratio_report(FamilyId("odd_wrap", q), "truncated") for q in range(2, 13)
    ]
    chart = render_table_figure(reports)
    dashed = [
        el
        for el in ET.fromstring(chart)
        if el.tag.endswith("line") and el.get("stroke-dasharray")
    ]
    assert len(dashed) == 2
    # guides are horizontal
    for el in dashed:
        assert el.get("y1") == el.get("y2")
