"""Diagram extraction: the crossing search against its all-pairs oracle,
its degeneracy checks, pinned Gauss codes, the perturbation passes, and
the direction sort and start points that one extraction shares between
its group test and its search."""

import hashlib
import json
import math

import pytest

from ribbonfold import (DegenerateDiagramError, FamilyId, FoldedLayout, Point, build, layout,
                        layout_from_centerline)
from ribbonfold import knot_id
from ribbonfold.knot_id import (
    DEFAULT_PERTURBATION_SCALE,
    _collinear_groups,
    _find_crossings,
    _perturbed_polyline,
    extract_diagram,
)

from diagram_sources import all_groups_collinear, all_pairs_crossings, crossing_outcome

# the members the benchmark's knot workload certifies or extracts
WORKLOAD_MEMBERS = (
    [FamilyId(tag, q) for q in range(2, 6) for tag in ("odd_wrap", "pinwheel")]
    + [FamilyId(tag, q) for q in (3, 5) for tag in ("even_wrap_plus2", "even_wrap_plus4")]
    + [FamilyId("star_polygon", p) for p in range(7, 50, 2)]
    + [FamilyId("short_52"), FamilyId("short_72"), FamilyId("rect_74")]
    + [FamilyId("odd_wrap", 20), FamilyId("pinwheel", 20), FamilyId("even_wrap_plus2", 21),
       FamilyId("even_wrap_plus4", 21), FamilyId("star_polygon", 401),
       FamilyId("star_polygon", 1001)]
)


def centerline_scale(centerline):
    return max(abs(v) for a, _ in centerline for v in a)


@pytest.mark.parametrize("family", WORKLOAD_MEMBERS, ids=str)
def test_crossing_search_matches_all_pairs_oracle(family):
    lay = layout(build(family))
    scale = centerline_scale(lay.centerline)
    groups = _collinear_groups(lay.centerline, scale)
    assert groups == all_groups_collinear(lay.centerline, scale)
    epsilon = DEFAULT_PERTURBATION_SCALE * lay.width
    # rect_74 also at the halved displacement of its second pass
    for eps in (epsilon, epsilon / 2) if groups else (epsilon,):
        vertices = _perturbed_polyline(lay.centerline, groups, eps)
        assert crossing_outcome(_find_crossings, vertices) == \
            crossing_outcome(all_pairs_crossings, vertices)


def _polyline(points):
    return [Point(float(x), float(y)) for x, y in points]


# segments 0 and 4 lie on one line, ten units apart: far outside each
# other's grid cells, so only the direction sort pairs them
FAR_COLLINEAR = [(0, 0), (1, 0), (1, 1), (10, 1), (10, 0), (11, 0), (11, 2), (0, 2)]
# the same pair tilted to angles just above 0 and just below pi
ACROSS_ZERO = [(0, 0), (1, 1e-14), (1, 1), (10, 1), (10, 0), (11, -1e-14), (11, 2), (0, 2)]
ACROSS_ZERO_REVERSED = [(0, 0), (1, 1e-14), (1, 1), (11, 1), (11, -1e-14), (10, 0),
                        (10, -2), (0, -2)]
# vertex 3 lies inside segment 0
VERTEX_ON_SEGMENT = [(0, 0), (4, 0), (4, 2), (2, 0), (0, 2)]
# segments 0, 2 and 4 all pass through the origin
TRIPLE_POINT = [(-3, 0), (2, 0), (2, 2), (-2, -2), (-2, 2), (2, -2)]


@pytest.mark.parametrize("points, message", [
    (FAR_COLLINEAR, "segments 0 and 4 remain coincident"),
    (ACROSS_ZERO, "segments 0 and 4 remain coincident"),
    (ACROSS_ZERO_REVERSED, "segments 0 and 4 remain coincident"),
    (VERTEX_ON_SEGMENT, "segments 0 and 2 touch at an endpoint"),
    (TRIPLE_POINT, "multiple crossings coincide at one point"),
], ids=["far-collinear", "across-zero", "across-zero-reversed", "vertex-on-segment",
        "triple-point"])
def test_crossing_search_degeneracies(points, message):
    vertices = _polyline(points)
    assert crossing_outcome(_find_crossings, vertices) == (DegenerateDiagramError, message)


def test_crossing_search_near_the_float_limit():
    # bounding boxes and grid extents overflow to inf here
    vertices = _polyline([(-1.5e308, 0), (1.5e308, 1e307), (0, 1.5e308), (1e307, -1.5e308)])
    assert crossing_outcome(_find_crossings, vertices) == \
        crossing_outcome(all_pairs_crossings, vertices)


def pentagram(radius):
    points = [Point(radius * math.cos(0.8 * math.pi * k), radius * math.sin(0.8 * math.pi * k))
              for k in range(5)]
    return layout_from_centerline(points, 0.1, [0, 1, 2, 3, 4], closed=True)


def test_overflowing_vertices_are_rejected(monkeypatch):
    # the start points are finite, but the segment vectors overflow; they
    # are rejected before any direction sort or crossing search
    def unreachable(*args):
        raise AssertionError("the search was reached")

    monkeypatch.setattr(knot_id, "_parallel_partners", unreachable)
    monkeypatch.setattr(knot_id, "_find_crossings", unreachable)
    with pytest.raises(DegenerateDiagramError, match="perturbed centerline is not finite"):
        extract_diagram(pentagram(1.7e308), 1.0)


def test_segment_without_unit_direction_is_rejected():
    # at radius 1e308, segment 1 has finite components but its length
    # overflows, so its unit direction would come out as (0, 0)
    with pytest.raises(DegenerateDiagramError, match="segment 1 has no unit direction"):
        extract_diagram(pentagram(1e308), 1.0)
    # segment 1 shrunk to a point
    lay = pentagram(1.0)
    segs = list(lay.centerline)
    start = segs[1][0]
    segs[1] = (start, start)
    segs[2] = (start, segs[2][1])
    with pytest.raises(DegenerateDiagramError, match="segment 1 has no unit direction"):
        extract_diagram(FoldedLayout(lay.panels, tuple(segs), None), 1e-3)


def gauss_digest(diagram):
    return hashlib.sha256(json.dumps(diagram.gauss).encode()).hexdigest()


# SHA-256 of json.dumps(diagram.gauss), taken with the all-pairs search
PINNED_GAUSS = {
    FamilyId("odd_wrap", 20): "5d372c41f71ca5112c052e2b457b7d0cb997c84920230524ffa0f270c3be1ee7",
    FamilyId("odd_wrap", 40): "d1cb6bc2e19aa11075fc6c2d5eec1ecd2e671ddd2fb6ee402a71e35255fd9d19",
    FamilyId("pinwheel", 20): "4d47e9da6f8fb4d99102a0cb23e5d37c8e50f597d355c6fd4aa564da5f99443e",
    FamilyId("even_wrap_plus2", 21):
        "62f4aabd1b80b73667d9ab46a6d91c458fed5087afcaa762d805062f67e839c6",
    FamilyId("even_wrap_plus4", 21):
        "7c7da1e3a1be3e00ebfe0b1f89d520086c41353799163f6c0025ae2d259eb46d",
    FamilyId("star_polygon", 401):
        "6a8a94c941a255b27631bc31f6e4d8d9f58ac53589ee00dc877910176716eec1",
    FamilyId("star_polygon", 1001):
        "f1f0172f14619b4c8e4b5da5ac0d0543bcad5e9d0fd3dfe6e5d7b816f9ccaab2",
    FamilyId("rect_74"): "de0075948a80c6d332c2c3ec198385bc05401785a02a5fe276817920aeb18fe5",
}


@pytest.mark.parametrize("family", list(PINNED_GAUSS), ids=str)
def test_gauss_codes_pinned(family):
    assert gauss_digest(extract_diagram(layout(build(family)))) == PINNED_GAUSS[family]


def test_odd_wrap_80_extracts():
    diagram = extract_diagram(layout(build(FamilyId("odd_wrap", 80))))
    assert diagram.crossing_count == 161 * 79 == 12719


@pytest.mark.parametrize("family, passes", [
    (FamilyId("odd_wrap", 5), 1),
    (FamilyId("star_polygon", 7), 1),
    (FamilyId("short_52"), 1),
    (FamilyId("rect_74"), 2),
], ids=str)
def test_halving_pass_only_for_displaced_runs(family, passes, monkeypatch):
    calls = []
    once = knot_id._extract_once

    def counted(*args):
        calls.append(args[-1])
        return once(*args)

    monkeypatch.setattr(knot_id, "_extract_once", counted)
    lay = layout(build(family))
    extract_diagram(lay)
    epsilon = DEFAULT_PERTURBATION_SCALE * lay.width
    assert calls == [epsilon, epsilon / 2][:passes]


@pytest.mark.parametrize("family", [FamilyId("odd_wrap", 5), FamilyId("star_polygon", 7),
                                    FamilyId("short_52")], ids=str)
def test_no_groups_means_no_displacement(family):
    lay = layout(build(family))
    assert _collinear_groups(lay.centerline, centerline_scale(lay.centerline)) == []
    epsilon = DEFAULT_PERTURBATION_SCALE * lay.width
    assert repr(_perturbed_polyline(lay.centerline, [], epsilon)) == \
        repr(_perturbed_polyline(lay.centerline, [], epsilon / 2))


def count_direction_sorts(monkeypatch):
    calls = []
    sort = knot_id._parallel_partners

    def counted(dxs, dys):
        calls.append(len(dxs))
        return sort(dxs, dys)

    monkeypatch.setattr(knot_id, "_parallel_partners", counted)
    return calls


def record_searches(monkeypatch):
    calls = []

    def recorded(vertices, scale, partners=None):
        calls.append((vertices, scale, partners))
        return _find_crossings(vertices, scale, partners)

    monkeypatch.setattr(knot_id, "_find_crossings", recorded)
    return calls


@pytest.mark.parametrize("family, sorts", [
    (FamilyId("odd_wrap", 5), 1),
    (FamilyId("star_polygon", 7), 1),
    (FamilyId("short_52"), 1),
    # the centerline's, then one per displaced pass
    (FamilyId("rect_74"), 3),
], ids=str)
def test_one_direction_sort_serves_the_group_test_and_the_search(family, sorts, monkeypatch):
    calls = count_direction_sorts(monkeypatch)
    extract_diagram(layout(build(family)))
    assert len(calls) == sorts


@pytest.mark.parametrize("family", [FamilyId("odd_wrap", 5), FamilyId("star_polygon", 7),
                                    FamilyId("short_52")], ids=str)
def test_search_without_runs_reads_the_start_points(family, monkeypatch):
    lay = layout(build(family))
    calls = record_searches(monkeypatch)
    extract_diagram(lay)
    assert [vertices for vertices, _, _ in calls] == [[a for a, _ in lay.centerline]]


@pytest.mark.parametrize("family", WORKLOAD_MEMBERS, ids=str)
def test_extraction_searches_match_all_pairs_oracle(family, monkeypatch):
    # every search an extraction makes, with the direction sort it is
    # handed, finds what the all-pairs oracle finds on its vertices
    calls = record_searches(monkeypatch)
    extract_diagram(layout(build(family)))
    assert len(calls) == (2 if family == FamilyId("rect_74") else 1)
    for vertices, scale, partners in calls:
        assert scale == max(max(abs(v.x), abs(v.y)) for v in vertices)
        assert crossing_outcome(lambda v, s: _find_crossings(v, s, partners), vertices) == \
            crossing_outcome(all_pairs_crossings, vertices)


@pytest.mark.parametrize("gap, sorts", [(1e-9, 1), (3e-7, 2)])
def test_closure_gaps_decide_whether_the_search_shares_the_sort(gap, sorts, monkeypatch):
    # each segment of a unit pentagram (length 1.9) ends `gap` off the next
    # start: under 1e-7 of the length the search reuses the centerline's
    # direction sort, above it the start points' polyline sorts its own
    lay = pentagram(1.0)
    segs = []
    for a, b in lay.centerline:
        ux, uy = b.x - a.x, b.y - a.y
        n = math.hypot(ux, uy)
        segs.append((a, Point(b.x - gap * uy / n, b.y + gap * ux / n)))
    gapped = FoldedLayout(lay.panels, tuple(segs), None)
    expected = extract_diagram(lay)
    calls = count_direction_sorts(monkeypatch)
    assert extract_diagram(gapped) == expected
    assert len(calls) == sorts
