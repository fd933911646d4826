"""Unit tests for the family builders."""

import hashlib
import math

import pytest

from diagram_sources import star_polyline_program
from ribbonfold import (
    ClosureError,
    FamilyId,
    InvalidInputError,
    ParameterError,
    TorusKnotParams,
    build,
    knot_type,
    layout,
    ratio,
)
from ribbonfold import constructions, formulas
from ribbonfold.fold_core import ExactAngle, layout_from_centerline, unfold
from ribbonfold.knot_id import (
    LaurentPolynomial,
    alexander_polynomial,
    extract_diagram,
    verify_knot_type,
)


def side_length(panel, k):
    a, b = panel.side(k)
    return math.hypot(b[0] - a[0], b[1] - a[1])


def line_distance(a, b, center):
    ux, uy = b[0] - a[0], b[1] - a[1]
    ax, ay = a[0] - center[0], a[1] - center[1]
    norm = math.hypot(ux, uy)
    return abs(ux * ay - uy * ax) / norm


def layout_center(lay):
    # closed star polylines have their vertices evenly spread, so the
    # vertex centroid recovers the centre wherever the layout landed
    xs = [seg[0][0] for seg in lay.centerline]
    ys = [seg[0][1] for seg in lay.centerline]
    return (sum(xs) / len(xs), sum(ys) / len(ys))


# ---------------------------------------------------------------- types


def test_torus_knot_params_accepts_coprime_pairs():
    t = TorusKnotParams(5, 2)
    assert (t.p, t.q) == (5, 2)
    TorusKnotParams(3, 2)
    TorusKnotParams(13, 5)


@pytest.mark.parametrize("p,q", [(2, 2), (3, 3), (2, 3), (4, 2), (9, 3), (5, 1)])
def test_torus_knot_params_rejects_bad_pairs(p, q):
    with pytest.raises(ParameterError):
        TorusKnotParams(p, q)


def test_torus_knot_params_rejects_non_integers():
    with pytest.raises(ParameterError):
        TorusKnotParams(5.0, 2)
    with pytest.raises(ParameterError):
        TorusKnotParams(True, 2)


def test_family_id_accepts_documented_ranges():
    FamilyId("odd_wrap", 2)
    FamilyId("star_polygon", 7)
    FamilyId("pinwheel", 2)
    FamilyId("even_wrap_plus2", 3)
    FamilyId("even_wrap_plus4", 11)
    FamilyId("short_52")
    FamilyId("short_72")
    FamilyId("rect_74")
    # the largest parameters within 10**5 panels
    FamilyId("odd_wrap", 49999)
    FamilyId("star_polygon", 99999)
    FamilyId("pinwheel", 49999)
    FamilyId("even_wrap_plus2", 49999)
    FamilyId("even_wrap_plus4", 49997)


@pytest.mark.parametrize(
    "tag,parameter",
    [
        ("odd_wrap", 1),
        ("odd_wrap", None),
        ("star_polygon", 6),
        ("star_polygon", 5),
        ("pinwheel", 1),
        ("even_wrap_plus2", 2),
        ("even_wrap_plus2", 1),
        ("even_wrap_plus4", 4),
        ("short_52", 3),
        ("rect_74", 0),
        ("heptagon", 7),
        # more than 10**5 panels
        ("odd_wrap", 50000),
        ("odd_wrap", 100000),
        ("star_polygon", 100001),
        ("pinwheel", 50000),
        ("even_wrap_plus2", 50001),
        ("even_wrap_plus4", 49999),
        pytest.param("odd_wrap", 10**5000, id="odd_wrap-10**5000"),
    ],
)
def test_family_id_rejects_out_of_range(tag, parameter):
    with pytest.raises(ParameterError):
        FamilyId(tag, parameter)


def test_knot_type_per_family():
    assert knot_type(FamilyId("odd_wrap", 4)) == TorusKnotParams(5, 4)
    assert knot_type(FamilyId("star_polygon", 9)) == TorusKnotParams(9, 2)
    assert knot_type(FamilyId("pinwheel", 3)) == TorusKnotParams(7, 3)
    assert knot_type(FamilyId("even_wrap_plus2", 3)) == TorusKnotParams(8, 3)
    assert knot_type(FamilyId("even_wrap_plus4", 5)) == TorusKnotParams(14, 5)
    assert knot_type(FamilyId("short_52")) == TorusKnotParams(5, 2)
    assert knot_type(FamilyId("short_72")) == TorusKnotParams(7, 2)
    assert knot_type(FamilyId("rect_74")) is None


@pytest.mark.parametrize("bad", ["odd_wrap", None, ("odd_wrap", 3)], ids=repr)
@pytest.mark.parametrize("call", [
    build, knot_type, formulas.closed_form_ratio, formulas.family_crossing_number,
    formulas.kusner_quotient, formulas.ratio_report,
], ids=lambda call: call.__name__)
def test_family_functions_reject_what_is_not_a_family_id(call, bad):
    with pytest.raises(InvalidInputError, match="expected a FamilyId"):
        call(bad)


# ------------------------------------------------------------- builders


def test_panel_counts_per_family():
    assert len(layout(build(FamilyId("odd_wrap", 3))).panels) == 7
    assert len(layout(build(FamilyId("odd_wrap", 3), presentation="truncated")).panels) == 6
    assert len(layout(build(FamilyId("star_polygon", 7))).panels) == 7
    assert len(layout(build(FamilyId("pinwheel", 3))).panels) == 7
    assert len(layout(build(FamilyId("even_wrap_plus2", 3))).panels) == 8
    assert len(layout(build(FamilyId("even_wrap_plus4", 3))).panels) == 10
    assert len(layout(build(FamilyId("short_52"), epsilon=1e-3)).panels) == 7
    assert len(layout(build(FamilyId("short_72"), epsilon=1e-3)).panels) == 9
    assert len(layout(build(FamilyId("rect_74"))).panels) == 16


def test_ratio_matches_closed_form_across_ranges():
    for q in range(2, 13):
        n = 2 * q + 1
        closed = ratio(build(FamilyId("odd_wrap", q)))
        trunc = ratio(build(FamilyId("odd_wrap", q), presentation="truncated"))
        assert abs(closed - n / math.tan(math.pi / n)) < 1e-9 * closed
        assert abs(trunc - 2 * q / math.tan(math.pi / n)) < 1e-9 * trunc
    for p in range(7, 26, 2):
        got = ratio(build(FamilyId("star_polygon", p)))
        assert abs(got - p / math.tan(math.pi / p)) < 1e-9 * got
    for q in range(2, 13):
        n = 2 * q + 1
        got = ratio(build(FamilyId("pinwheel", q)))
        assert abs(got - n / math.tan(math.pi / (2 * n))) < 1e-9 * got
    for q in range(3, 12, 2):
        for variant in (2, 4):
            n = 2 * q + variant
            got = ratio(build(FamilyId("even_wrap_plus%d" % variant, q)))
            assert abs(got - n / math.tan(math.pi / n)) < 1e-9 * got


def test_odd_wrap_corners_lie_on_circumscribed_circle():
    # every fold line is a chord of the circle around the wrapped polygon
    for q in range(2, 13):
        n = 2 * q + 1
        r = 1.0 / (2.0 * math.sin(math.pi / n))
        lay = layout(build(FamilyId("odd_wrap", q)))
        cx, cy = layout_center(lay)
        for panel in lay.panels:
            for vx, vy in panel.vertices:
                assert abs(math.hypot(vx - cx, vy - cy) - r) < 1e-9


def test_odd_wrap_panel_edges_match_direct_chords():
    # measure one panel of the q = 3 wrap against chords constructed
    # directly on the circumscribed heptagon circle
    q = 3
    n = 2 * q + 1
    r = 1.0 / (2.0 * math.sin(math.pi / n))
    base_direct = 2.0 * r * math.sin(q * math.pi / n)
    top_direct = 2.0 * r * math.sin((q - 1) * math.pi / n)
    width_direct = math.sqrt(r * r - base_direct**2 / 4.0) + math.sqrt(
        r * r - top_direct**2 / 4.0
    )

    base_formula = 1.0 / (2.0 * math.sin(math.pi / (2 * n)))
    top_formula = math.cos(3.0 * math.pi / (2 * n)) / math.sin(math.pi / n)
    width_formula = math.cos(math.pi / (2 * n))
    assert abs(base_formula - base_direct) < 1e-12
    assert abs(top_formula - top_direct) < 1e-12
    assert abs(width_formula - width_direct) < 1e-12

    prog = build(FamilyId("odd_wrap", q))
    assert abs(prog.width - width_direct) < 1e-12
    panel = layout(prog).panels[0]
    edges = sorted([side_length(panel, 0), side_length(panel, 2)])
    assert abs(edges[1] - base_direct) < 1e-12
    assert abs(edges[0] - top_direct) < 1e-12
    # fold lines are unit chords, the sides of the wrapped polygon
    assert abs(side_length(panel, 1) - 1.0) < 1e-12
    assert abs(side_length(panel, 3) - 1.0) < 1e-12


def test_star_polygon_hole_is_regular_concentric_polygon():
    for p in range(7, 26, 2):
        width = math.sin(2.0 * math.pi / p)
        chord = 1.0 + math.cos(2.0 * math.pi / p)
        radius = chord / (2.0 * math.sin(2.0 * math.pi / p))
        apothem = radius * math.cos(2.0 * math.pi / p) - width / 2.0
        assert apothem > 0.0
        lay = layout(build(FamilyId("star_polygon", p)))
        cx, cy = layout_center(lay)
        azimuths = []
        for panel in lay.panels:
            d0 = line_distance(*panel.side(0), (cx, cy))
            d2 = line_distance(*panel.side(2), (cx, cy))
            inner = panel.side(0) if d0 < d2 else panel.side(2)
            assert abs(min(d0, d2) - apothem) < 1e-9
            (ax, ay), (bx, by) = inner
            mx, my = 0.5 * (ax + bx) - cx, 0.5 * (ay + by) - cy
            foot = math.hypot(mx, my)
            assert foot > 0.0
            azimuths.append(math.atan2(my, mx))
        # p tangent lines with evenly spaced normals bound a regular p-gon
        azimuths.sort()
        for i in range(p):
            nxt = azimuths[(i + 1) % p] + (2.0 * math.pi if i + 1 == p else 0.0)
            assert abs((nxt - azimuths[i]) - 2.0 * math.pi / p) < 1e-9


def test_star_polygon_unit_sides():
    panel = layout(build(FamilyId("star_polygon", 7))).panels[0]
    chord = 1.0 + math.cos(2.0 * math.pi / 7)
    edges = sorted([side_length(panel, 0), side_length(panel, 2)])
    assert abs(side_length(panel, 1) - 1.0) < 1e-12
    assert abs(side_length(panel, 3) - 1.0) < 1e-12
    # short parallel side is unit too; the base carries the rest
    assert abs(edges[0] - 1.0) < 1e-12
    assert abs(edges[1] - (1.0 + 2.0 * math.cos(2.0 * math.pi / 7))) < 1e-12
    assert abs((edges[0] + edges[1]) / 2.0 - chord) < 1e-12


def test_pinwheel_panel_edges():
    q = 2
    n = 2 * q + 1
    panel = layout(build(FamilyId("pinwheel", q))).panels[0]
    top = 2.0 / math.tan(math.pi / n)
    base = 2.0 / math.sin(math.pi / n)
    edges = sorted([side_length(panel, 0), side_length(panel, 2)])
    assert abs(edges[0] - top) < 1e-12
    assert abs(edges[1] - base) < 1e-12
    # (base + top) / (2 width) collapses to cot(pi / (2n))
    assert abs((base + top) / 2.0 - 1.0 / math.tan(math.pi / (2 * n))) < 1e-12


def test_even_wrap_center_coverage():
    # the n = 2q+2 wraps close the centre exactly; n = 2q+4 leaves a hole
    for q in (3, 5):
        n = 2 * q + 2
        width = math.sin(q * math.pi / n)
        radius = (width / math.tan(math.pi / n)) / (2.0 * math.sin(q * math.pi / n))
        apothem = radius * math.cos(q * math.pi / n) - width / 2.0
        assert abs(apothem) < 1e-12
    for q in (3, 5):
        n = 2 * q + 4
        width = math.sin(q * math.pi / n)
        radius = (width / math.tan(math.pi / n)) / (2.0 * math.sin(q * math.pi / n))
        apothem = radius * math.cos(q * math.pi / n) - width / 2.0
        assert apothem > 1e-3


def test_closed_builders_pass_closure():
    programs = [
        build(FamilyId("odd_wrap", 2)),
        build(FamilyId("star_polygon", 7)),
        build(FamilyId("pinwheel", 2)),
        build(FamilyId("even_wrap_plus2", 3)),
        build(FamilyId("even_wrap_plus4", 3)),
        build(FamilyId("short_52"), epsilon=1e-3),
        build(FamilyId("short_72"), epsilon=1e-3),
        build(FamilyId("rect_74")),
    ]
    for prog in programs:
        assert prog.presentation == "closed"
        layout(prog)  # raises ClosureError when the seam fails to meet


def test_truncated_odd_wrap_has_end_cuts():
    prog = build(FamilyId("odd_wrap", 3), presentation="truncated")
    assert prog.presentation == "truncated"
    assert prog.start_cut is not None
    assert prog.end_cut is not None


@pytest.mark.parametrize("family,options", [
    pytest.param(("odd_wrap", 1), {}, id="odd_wrap-1"),
    pytest.param(("odd_wrap", 0), {}, id="odd_wrap-0"),
    pytest.param(("odd_wrap", 2.5), {}, id="odd_wrap-2.5"),
    pytest.param(("odd_wrap", 3), {"presentation": "open"}, id="odd_wrap-3-presentation=open"),
    pytest.param(("star_polygon", 5), {}, id="star_polygon-5"),
    pytest.param(("star_polygon", 8), {}, id="star_polygon-8"),
    pytest.param(("pinwheel", 1), {}, id="pinwheel-1"),
    pytest.param(("even_wrap_plus2", 2), {}, id="even_wrap_plus2-2"),
    pytest.param(("even_wrap_plus2", 4), {}, id="even_wrap_plus2-4"),
    pytest.param(("short_52",), {"epsilon": 0.0}, id="short_52-epsilon=0.0"),
    pytest.param(("short_52",), {"epsilon": -1e-3}, id="short_52-epsilon=-1e-3"),
    pytest.param(("short_52",), {"epsilon": 0.1}, id="short_52-epsilon=0.1"),
    pytest.param(("short_72",), {"epsilon": 0.25}, id="short_72-epsilon=0.25"),
    pytest.param(("star_polygon", 7), {"presentation": "truncated"},
                 id="star_polygon-7-presentation=truncated"),
    pytest.param(("short_52",), {"epsilon": None}, id="short_52-epsilon=None"),
    # below 1e-9 the limit defect is near float noise
    pytest.param(("short_52",), {"epsilon": 1e-10}, id="short_52-epsilon=1e-10"),
    pytest.param(("short_52",), {"epsilon": 1e-300}, id="short_52-epsilon=1e-300"),
    pytest.param(("short_72",), {"epsilon": 1e-10}, id="short_72-epsilon=1e-10"),
    pytest.param(("short_52",), {"epsilon": 10**400}, id="short_52-epsilon=10**400"),
])
def test_parameter_errors(family, options):
    with pytest.raises(ParameterError):
        build(FamilyId(*family), **options)


# ---------------------------------------------------------- the shorts


def test_short_ratios_converge_first_order():
    for family, limit in (
        (FamilyId("short_52"), 7.0 / math.tan(math.pi / 5.0)),
        (FamilyId("short_72"), 9.0 / math.tan(math.pi / 5.0)),
    ):
        d3 = limit - ratio(build(family, epsilon=1e-3))
        d4 = limit - ratio(build(family, epsilon=1e-4))
        d6 = limit - ratio(build(family, epsilon=1e-6))
        assert abs(d6) < 5e-6
        assert abs(d3) < 5e-3
        # halving epsilon should halve the defect: first order in epsilon
        assert 8.0 < d3 / d4 < 12.0
        assert d3 - d6 == pytest.approx(d3, rel=2e-2)


def test_short_panel_count_stable_over_epsilon():
    for eps in (1e-4, 1e-3, 1e-2, 5e-2, 9e-2):
        assert len(layout(build(FamilyId("short_52"), epsilon=eps)).panels) == 7
        assert len(layout(build(FamilyId("short_72"), epsilon=eps)).panels) == 9


def test_short_52_certifies_five_two():
    for eps in (1e-3, 1e-2):
        report = verify_knot_type(build(FamilyId("short_52"), epsilon=eps), expected=(5, 2))
        assert report.matches


def test_short_72_certifies_seven_two():
    report = verify_knot_type(build(FamilyId("short_72"), epsilon=1e-3), expected=(7, 2))
    assert report.matches


# ------------------------------------------------------- the rectangle


def test_74_ratio_and_box():
    prog = build(FamilyId("rect_74"))
    assert abs(ratio(prog) - 24.0) < 1e-12
    lay = layout(prog)
    xs = [v[0] for panel in lay.panels for v in panel.vertices]
    ys = [v[1] for panel in lay.panels for v in panel.vertices]
    span_x = max(xs) - min(xs)
    span_y = max(ys) - min(ys)
    assert abs(span_x - 3.0) < 1e-9
    assert abs(span_y - 2.0) < 1e-9
    assert abs(span_x / span_y - 1.5) < 1e-9


def test_74_alexander_polynomial():
    # the coincident lane copies must separate cleanly during extraction
    diagram = extract_diagram(layout(build(FamilyId("rect_74"))))
    delta = alexander_polynomial(diagram)
    assert delta == LaurentPolynomial({0: 4, 1: -7, 2: 4})


# ------------------------------------------------------------ dispatch


def test_build_dispatch_matches_direct_builders():
    pairs = [
        (FamilyId("odd_wrap", 3), constructions._odd_wrap(3, "closed")),
        (FamilyId("star_polygon", 9), constructions._star_polygon(9)),
        (FamilyId("pinwheel", 2), constructions._pinwheel(2)),
        (FamilyId("even_wrap_plus2", 3), constructions._even_wrap(3, 2)),
        (FamilyId("even_wrap_plus4", 5), constructions._even_wrap(5, 4)),
        (FamilyId("short_52"), constructions._short("short_52", 1e-3)),
        (FamilyId("short_72"), constructions._short("short_72", 1e-3)),
        (FamilyId("rect_74"), constructions._74()),
    ]
    for family, direct in pairs:
        assert build(family).to_json() == direct.to_json()
    trunc = build(FamilyId("odd_wrap", 3), presentation="truncated")
    assert trunc.to_json() == constructions._odd_wrap(3, "truncated").to_json()


def test_builders_are_deterministic():
    assert build(FamilyId("rect_74")).to_json() == build(FamilyId("rect_74")).to_json()
    short = FamilyId("short_52")
    assert build(short, epsilon=2e-3).to_json() == build(short, epsilon=2e-3).to_json()
    assert build(FamilyId("odd_wrap", 5)).to_json() == build(FamilyId("odd_wrap", 5)).to_json()


# -------------------------------------------------- geometric oracles


def assert_same_creases(program, oracle, angle_tolerance=None):
    # angles exact, or within angle_tolerance rad for angles that are no
    # rational multiple of pi; positions within 1e-12 relative
    assert len(program.creases) == len(oracle.creases)
    for got, want in zip(program.creases, oracle.creases):
        if angle_tolerance is None:
            assert got.angle == want.angle
        else:
            assert abs(got.angle.radians - want.angle.radians) <= angle_tolerance
        assert got.layer_shift == want.layer_shift
        assert abs(got.position - want.position) <= 1e-12 * want.position
    # a measured width carries absolute noise, large against a thin star's
    assert abs(program.width - oracle.width) <= 1e-12


STAR_MEMBERS = (
    [("odd_wrap", q) for q in range(2, 9)]
    + [("star_polygon", p) for p in range(7, 30, 2)]
    + [("pinwheel", q) for q in range(2, 9)]
    + [(tag, q) for tag in ("even_wrap_plus2", "even_wrap_plus4") for q in (3, 5, 7, 9)]
)


@pytest.mark.parametrize("tag,parameter", STAR_MEMBERS)
def test_star_families_match_polyline_oracle(tag, parameter):
    program = build(FamilyId(tag, parameter))
    assert_same_creases(program, star_polyline_program(tag, parameter))


@pytest.mark.parametrize("p", [1001, 1653])
def test_large_star_polygons_match_polyline_oracle(p):
    # angle denominators past 1000 still snap exactly out of the geometry
    assert_same_creases(build(FamilyId("star_polygon", p)),
                        star_polyline_program("star_polygon", p))


@pytest.mark.parametrize("q", [2, 3, 6])
def test_truncated_odd_wrap_is_the_closed_wrap_less_one_panel(q):
    # the end cuts lie on the two creases of the dropped panel, so every
    # placed panel coincides with the closed wrap's
    closed = layout(build(FamilyId("odd_wrap", q))).panels
    truncated = layout(build(FamilyId("odd_wrap", q), presentation="truncated")).panels
    assert len(truncated) == len(closed) - 1
    for a, b in zip(truncated, closed):
        assert a.layer == b.layer
        for (ax, ay), (bx, by) in zip(a.vertices, b.vertices):
            assert math.hypot(ax - bx, ay - by) <= 1e-12 * (2 * q + 1)


def test_rect_74_matches_polyline_oracle():
    corners = ((0.5, 0.5), (2.5, 0.5), (2.5, 1.5), (0.5, 1.5)) * 4
    lay = layout_from_centerline(corners, 1.0, constructions._RECT_74_HEIGHTS, closed=True)
    assert_same_creases(build(FamilyId("rect_74")), unfold(lay))


def test_rect_74_json_pinned():
    # SHA-256 of the program JSON as built through the unfolded polyline;
    # the 7_4 certification reads the noise-level signs of its geometry
    digest = hashlib.sha256(build(FamilyId("rect_74")).to_json().encode()).hexdigest()
    assert digest == "3fb66dd56713e24cd1a7fea3baf6a73a01d94472f7acae5a8f2a8ee91ef5e1c9"


# the paired creases turn by nearly pi, where a bisector from the sum of
# the two directions cancelled and lost about 1e-16 / epsilon rad
@pytest.mark.parametrize("epsilon", [1e-7, 1e-6, 1e-4, 1e-3, 0.0035022622413135, 0.05, 0.099])
@pytest.mark.parametrize("name", ["short_52", "short_72"])
def test_shorts_match_polyline_oracle(name, epsilon):
    drifts, heights = constructions._SHORTS[name]
    # the limit ratio 7/tan(pi/5) or 9/tan(pi/5) over the limit length
    target = {"short_52": 7.0, "short_72": 9.0}[name] / math.tan(math.pi / 5)
    joins = len(drifts) - 1
    scale = target / constructions._limit_length(constructions._SHORT_RAW, joins)
    pts = constructions._short_centerline(epsilon, scale, drifts)
    lay = layout_from_centerline(pts, 1.0, heights, closed=True)
    assert_same_creases(build(FamilyId(name), epsilon=epsilon), unfold(lay), 1e-12)


def test_large_star_families_have_two_crease_angles():
    angles = {c.angle for c in build(FamilyId("star_polygon", 1001)).creases}
    assert angles == {ExactAngle(2, 1001), ExactAngle(999, 1001)}
    wrap = build(FamilyId("odd_wrap", 600))
    assert {c.angle for c in wrap.creases} == {ExactAngle(600, 1201), ExactAngle(601, 1201)}
    truncated = build(FamilyId("odd_wrap", 600), presentation="truncated")
    assert {c.angle for c in truncated.creases} == {ExactAngle(600, 1201), ExactAngle(601, 1201)}


def test_short_52_lays_out_where_angles_once_snapped():
    # a denominator-673 fraction within 1e-9 rad of its first crease used
    # to be taken for the angle, and the seam then missed its start
    program = build(FamilyId("short_52"), epsilon=0.0035022622413135)
    assert all(c.angle.denominator > 10**6 for c in program.creases)
    limit = 7.0 / math.tan(math.pi / 5.0)
    assert 0.0 < limit - ratio(layout(program)) <= 10 * 0.0035022622413135
