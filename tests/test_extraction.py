"""Diagram extraction: the crossing search against its all-pairs oracle,
its degeneracy checks and error paths, pinned Gauss codes, the
perturbation passes, the strand order of the passages, the direction
sort and start points that one extraction shares between its group test
and its search, and layouts whose panels do not match their centerline."""

import hashlib
import json
import math
import random

import pytest

from ribbonfold import (DegenerateDiagramError, FamilyId, FoldedLayout, InconsistencyError,
                        InvalidInputError, LayeringInconsistencyError, build, layout,
                        layout_from_centerline)
from ribbonfold import knot_id
from ribbonfold.knot_id import (
    DEFAULT_PERTURBATION_SCALE,
    _collinear_groups,
    _find_crossings,
    _near_hit_pairs,
    _perturbed_polyline,
    extract_diagram,
)

from diagram_sources import (all_groups_collinear, all_pairs_crossings, all_pairs_partners,
                             crossing_outcome, near_hit_pairs_loop, parallel_partners_loop)

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
    return [(float(x), float(y)) for x, y in points]


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


# TRIPLE_POINT with its third vertex raised 1e-13: the three hits are
# distinct, but closer together than the point tolerance 3e-12
NEAR_TRIPLE_POINT = [(-3, 0), (2, 0), (2, 2 + 1e-13), (-2, -2), (-2, 2), (2, -2)]


def test_hits_closer_than_the_point_tolerance_still_raise():
    vertices = _polyline(NEAR_TRIPLE_POINT)
    assert crossing_outcome(_find_crossings, vertices) == \
        crossing_outcome(all_pairs_crossings, vertices) == \
        (DegenerateDiagramError, "multiple crossings coincide at one point")


def test_near_hit_pairs_read_a_direction_off_every_axis():
    # hits stacked on one vertical axis, or on one horizontal one, are far
    # apart on the direction at angle 1; hits closer than the reach pair
    column = [0.0] * 5, [float(k) for k in range(5)]
    row = column[1], column[0]
    for xs, ys in (column, row):
        assert _near_hit_pairs(xs, ys, 1e-3) == []
    assert _near_hit_pairs([0.0, 5.0, 1e-4], [0.0, 0.0, -1e-4], 1e-3) == [(2, 0)]


def test_hit_check_compares_no_pair_on_a_wrap_axis(monkeypatch):
    # every hit of even_wrap_plus2 q=21 that shares its x with another lies
    # on a symmetry axis; sorted on x alone, the check compared 2121 pairs
    pairs = []

    def recorded(xs, ys, reach):
        out = _near_hit_pairs(xs, ys, reach)
        # the pairs whose x differ by less than the point tolerance
        same_x = sum(1 for a in range(len(xs)) for b in range(a)
                     if abs(xs[a] - xs[b]) < reach / 2)
        pairs.append((same_x, out))
        return out

    monkeypatch.setattr(knot_id, "_near_hit_pairs", recorded)
    extract_diagram(layout(build(FamilyId("even_wrap_plus2", 21))))
    assert pairs == [(2121, [])]


def test_crossing_search_near_the_float_limit():
    # bounding boxes and grid extents overflow to inf here
    vertices = _polyline([(-1.5e308, 0), (1.5e308, 1e307), (0, 1.5e308), (1e307, -1.5e308)])
    assert crossing_outcome(_find_crossings, vertices) == \
        crossing_outcome(all_pairs_crossings, vertices)


def pentagram(radius):
    points = [(radius * math.cos(0.8 * math.pi * k), radius * math.sin(0.8 * math.pi * k))
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
        extract_diagram(pentagram(1.7e308))


def test_segment_without_unit_direction_is_rejected():
    # at radius 1e308, segment 1 has finite components but its length
    # overflows, so its unit direction would come out as (0, 0)
    with pytest.raises(DegenerateDiagramError, match="segment 1 has no unit direction"):
        extract_diagram(pentagram(1e308))
    # segment 1 shrunk to a point
    lay = pentagram(1.0)
    segs = list(lay.centerline)
    start = segs[1][0]
    segs[1] = (start, start)
    segs[2] = (start, segs[2][1])
    with pytest.raises(DegenerateDiagramError, match="segment 1 has no unit direction"):
        extract_diagram(FoldedLayout(lay.panels, tuple(segs), None))


def test_too_few_segments_are_rejected():
    lay = layout(build(FamilyId("odd_wrap", 3)))
    with pytest.raises(DegenerateDiagramError, match="too few segments"):
        extract_diagram(FoldedLayout(lay.panels[:2], lay.centerline[:2]))


def test_open_centerline_is_rejected():
    # segment 0 ends 1e-3 off segment 1's start, far past the closure gap
    lay = layout(build(FamilyId("odd_wrap", 3)))
    (a, b), rest = lay.centerline[0], lay.centerline[1:]
    segs = ((a, (b[0] + 1e-3, b[1])),) + rest
    with pytest.raises(DegenerateDiagramError, match="centerline is not a closed loop"):
        extract_diagram(FoldedLayout(lay.panels, segs, lay.source))


def test_displacement_that_collapses_a_segment_is_rejected(monkeypatch):
    # rect_74 (width 1) with its coincident runs pushed half a width apart
    # flips segment 11; at 0.3 widths it still extracts
    lay = layout(build(FamilyId("rect_74")))
    monkeypatch.setattr(knot_id, "DEFAULT_PERTURBATION_SCALE", 0.3)
    assert extract_diagram(lay).crossing_count == 15
    monkeypatch.setattr(knot_id, "DEFAULT_PERTURBATION_SCALE", 0.5)
    with pytest.raises(DegenerateDiagramError, match="perturbation collapsed segment 11"):
        extract_diagram(lay)


@pytest.mark.parametrize("call", [
    lambda lay: extract_diagram(lay, 1e-3),
    lambda lay: extract_diagram(lay, perturbation=1e-3),
], ids=["positional", "keyword"])
def test_extract_diagram_takes_only_the_layout(call):
    lay = layout(build(FamilyId("odd_wrap", 3)))
    with pytest.raises(TypeError):
        call(lay)


def gauss_digest(diagram):
    return hashlib.sha256(json.dumps(diagram.gauss).encode()).hexdigest()


# SHA-256 of json.dumps(diagram.gauss), taken with the all-pairs search;
# the stars' are of the torus weave, whose codes test_bit_identity.py
# checks against the mirrored codes of the alternating weave
PINNED_GAUSS = {
    FamilyId("odd_wrap", 20): "5d372c41f71ca5112c052e2b457b7d0cb997c84920230524ffa0f270c3be1ee7",
    FamilyId("odd_wrap", 40): "d1cb6bc2e19aa11075fc6c2d5eec1ecd2e671ddd2fb6ee402a71e35255fd9d19",
    FamilyId("pinwheel", 20): "4d47e9da6f8fb4d99102a0cb23e5d37c8e50f597d355c6fd4aa564da5f99443e",
    FamilyId("even_wrap_plus2", 21):
        "62f4aabd1b80b73667d9ab46a6d91c458fed5087afcaa762d805062f67e839c6",
    FamilyId("even_wrap_plus4", 21):
        "7c7da1e3a1be3e00ebfe0b1f89d520086c41353799163f6c0025ae2d259eb46d",
    FamilyId("star_polygon", 401):
        "55b38c3165363834507b1bb5a7b1b0d4a387e717b13404b367676142e06c3836",
    FamilyId("star_polygon", 1001):
        "08454e8f88d6d7942e5ba5d5668a49674302a8ff06f9e25e869dab418013b793",
    FamilyId("rect_74"): "de0075948a80c6d332c2c3ec198385bc05401785a02a5fe276817920aeb18fe5",
}


@pytest.mark.parametrize("family", list(PINNED_GAUSS), ids=str)
def test_gauss_codes_pinned(family):
    assert gauss_digest(extract_diagram(layout(build(family)))) == PINNED_GAUSS[family]


# rect_74 is the one built member with coincident runs; every displacement
# from 1e-6 widths up to 0.3 (0.4 and 0.5 collapse a segment) gives
# the pinned Gauss code of the default 1e-3
@pytest.mark.parametrize("scale", [1e-6, 1e-5, 1e-4, 1e-2, 0.1, 0.3])
def test_rect74_gauss_is_stable_under_displacement_scale(scale, monkeypatch):
    lay = layout(build(FamilyId("rect_74")))
    monkeypatch.setattr(knot_id, "DEFAULT_PERTURBATION_SCALE", scale)
    assert gauss_digest(extract_diagram(lay)) == PINNED_GAUSS[FamilyId("rect_74")]


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


def test_gauss_code_that_changes_under_halving_is_rejected(monkeypatch):
    # rect_74 agrees at every displacement that keeps its segments, so the
    # pass at half the displacement is made to return the mirror diagram
    once = knot_id._extract_once
    calls = []

    def mirrored_second_pass(*args):
        diagram = once(*args)
        calls.append(args[-1])
        if len(calls) == 1:
            return diagram
        return knot_id.KnotDiagram(tuple((c, not over, -sign) for c, over, sign in diagram.gauss))

    monkeypatch.setattr(knot_id, "_extract_once", mirrored_second_pass)
    lay = layout(build(FamilyId("rect_74")))
    message = "^Gauss code changed under perturbation halving; displacement too large$"
    with pytest.raises(DegenerateDiagramError, match=message):
        extract_diagram(lay)
    epsilon = DEFAULT_PERTURBATION_SCALE * lay.width
    assert calls == [epsilon, epsilon / 2]


@pytest.mark.parametrize("family", [FamilyId("odd_wrap", 5), FamilyId("star_polygon", 7),
                                    FamilyId("short_52")], ids=str)
def test_no_groups_means_no_displacement(family):
    lay = layout(build(family))
    assert _collinear_groups(lay.centerline, centerline_scale(lay.centerline)) == []
    epsilon = DEFAULT_PERTURBATION_SCALE * lay.width
    assert repr(_perturbed_polyline(lay.centerline, [], epsilon)) == \
        repr(_perturbed_polyline(lay.centerline, [], epsilon / 2))


WINDOW = knot_id._DIRECTION_WINDOW


def directions(angles):
    # off unit length, since the sort reads directions of any length
    return [2.5 * math.cos(a) for a in angles], [2.5 * math.sin(a) for a in angles]


# every pair sits at least 0.1 window (1e-7 rad) from the window's edge,
# far beyond the rounding of an angle near pi (about 4e-16 rad)
PARTNER_CASES = {
    "one": directions([0.3]),
    "two-inside": directions([0.3, 0.3 + 0.5 * WINDOW]),
    "two-outside": directions([0.3, 0.3 + 2 * WINDOW]),
    "three-chain": directions([0.3, 0.3 + 0.6 * WINDOW, 0.3 + 1.2 * WINDOW]),
    "three-apart": directions([0.3, 0.3 + 10 * WINDOW, 2.0]),
    "near-0-and-pi": directions([3e-8, math.pi - 5e-8, -4e-8, math.pi + 2e-8, 1e-7,
                                      -1e-7, 1.0, 1.0 + 0.5 * WINDOW]),
    "wrap-inside": directions([0.4 * WINDOW, math.pi - 0.4 * WINDOW]),
    "wrap-outside": directions([0.9 * WINDOW, math.pi - 0.9 * WINDOW, 0.5]),
    "wrap-chain": directions([math.pi - 0.7 * WINDOW, 0.0, 0.7 * WINDOW, 0.5]),
    "antiparallel": ([1.0, -1.0, -1.0, 0.0, 0.0, 3.0, -3.0, 0.5],
                     [0.0, 0.0, -0.0, 1.0, -1.0, 4.0, -4.0, 0.5]),
    "star-1001": FamilyId("star_polygon", 1001),
    "rect-74": FamilyId("rect_74"),
}


@pytest.mark.parametrize("name", list(PARTNER_CASES))
def test_parallel_partners_match_all_pairs_reference(name):
    case = PARTNER_CASES[name]
    if isinstance(case, FamilyId):
        centerline = layout(build(case)).centerline
        case = [b[0] - a[0] for a, b in centerline], [b[1] - a[1] for a, b in centerline]
    partners = knot_id._parallel_partners(*case)
    assert partners == all_pairs_partners(*case, WINDOW)
    if name in ("near-0-and-pi", "wrap-inside", "wrap-chain"):
        # the first two directions meet only across the wrap past pi
        assert partners[0] >> 1 & 1


def window_gap_directions():
    """Directions (1, 0) and (1, dy) whose angles, as the direction sort
    computes them, differ by exactly the window: 0.0 and WINDOW."""
    dy = math.tan(WINDOW)
    for _ in range(64):
        theta = math.atan2(dy, 1.0) % math.pi
        if theta == WINDOW:
            return [1.0, 1.0], [0.0, dy]
        dy = math.nextafter(dy, math.inf if theta < WINDOW else 0.0)
    raise AssertionError("no direction at angle WINDOW")


def seeded_directions(rng, m):
    """m directions of random length and travel sense, their angles drawn
    near 0, near pi, in clusters a fraction of a window apart or anywhere."""
    base = rng.uniform(0.0, math.pi)
    vectors = []
    for _ in range(m):
        kind = rng.randrange(4)
        if kind == 0:
            angle = rng.choice([1.0, -1.0]) * rng.uniform(0.0, 3 * WINDOW)
        elif kind == 1:
            angle = math.pi + rng.choice([1.0, -1.0]) * rng.uniform(0.0, 3 * WINDOW)
        elif kind == 2:
            angle = base + rng.randrange(4) * 0.5 * WINDOW
        else:
            angle = rng.uniform(-math.pi, math.pi)
        angle += rng.choice([0.0, math.pi])
        length = rng.uniform(0.1, 10.0)
        vectors.append((length * math.cos(angle), length * math.sin(angle)))
    return [dx for dx, _ in vectors], [dy for _, dy in vectors]


def test_parallel_partners_match_the_loop_from_every_position():
    # the sort's walk starts only where the first step stays inside the
    # window; the loop that starts everywhere must give every mask
    dxs, dys = window_gap_directions()
    cases = [(dxs, dys), (dxs + [0.5], dys + [0.5]), ([], [])]
    cases += [([-dx for dx in dxs], dys)]
    rng = random.Random(35)
    cases += [seeded_directions(rng, m) for m in (1, 2, 3) for _ in range(50)]
    cases += [seeded_directions(rng, rng.randrange(4, 40)) for _ in range(300)]
    for case in cases:
        assert knot_id._parallel_partners(*case) == parallel_partners_loop(*case), case
    # the gap of exactly one window pairs, as "> window" breaks
    assert knot_id._parallel_partners(dxs, dys) == [2, 1]
    assert sum(1 for case in cases if any(parallel_partners_loop(*case))) > 100


def test_near_hit_pairs_match_the_loop_from_every_position():
    # the walk starts only where the next key is within reach; reaches
    # equal to each gap between sorted keys, and one ulp either side, must
    # give the pairs of the loop that starts everywhere
    cx, cy = knot_id._AXIS
    rng = random.Random(35)
    checked = paired = 0
    for n in [0, 1, 2, 3] * 10 + [rng.randrange(4, 30) for _ in range(60)]:
        xs, ys = [], []
        for _ in range(n):
            if xs and rng.random() < 0.4:
                k = rng.randrange(len(xs))
                xs.append(xs[k] + rng.uniform(-1e-3, 1e-3))
                ys.append(ys[k] + rng.uniform(-1e-3, 1e-3))
            else:
                xs.append(rng.uniform(-5.0, 5.0))
                ys.append(rng.uniform(-5.0, 5.0))
        keys = sorted(x * cx + y * cy for x, y in zip(xs, ys))
        reaches = {1e-3}
        for gap in (b - a for a, b in zip(keys, keys[1:])):
            reaches.update((gap, math.nextafter(gap, math.inf), math.nextafter(gap, 0.0)))
        for reach in sorted(reaches):
            pairs = near_hit_pairs_loop(xs, ys, reach)
            assert _near_hit_pairs(xs, ys, reach) == pairs, (xs, ys, reach)
            checked += 1
            paired += bool(pairs)
    assert paired > checked // 2


def test_torus_rule_names_the_first_tie_in_hit_order():
    # hits 0 and 1 are ordered; hits 2 and 3 tie within 1e-9, and hit
    # 2's segments are named
    hits = ([0, 1, 2, 3], [0.2, 0.4, 0.5, 0.7], [5, 6, 7, 8],
            [0.3, 0.1, 0.5 + 5e-10, 0.7 - 5e-10], [0.0] * 4, [0.0] * 4)
    with pytest.raises(LayeringInconsistencyError) as caught:
        knot_id._decide_over(hits, None, "torus")
    assert str(caught.value) == "torus rule cannot order segments 2 and 7"


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
        assert scale == max(max(abs(x), abs(y)) for x, y in vertices)
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
        ux, uy = b[0] - a[0], b[1] - a[1]
        n = math.hypot(ux, uy)
        segs.append((a, (b[0] - gap * uy / n, b[1] + gap * ux / n)))
    gapped = FoldedLayout(lay.panels, tuple(segs), None)
    expected = extract_diagram(lay)
    calls = count_direction_sorts(monkeypatch)
    assert extract_diagram(gapped) == expected
    assert len(calls) == sorts


def tuple_strand_order(hits):
    """The passages of parallel-list hits in strand order, as a sort on
    (segment, parameter, hit) over one tuple per passage gives it; passage
    2h lies on hit h's segment i, passage 2h + 1 on its segment j."""
    his, ts, hjs, ss, _, _ = hits
    passages = [(i, t, h, 2 * h) for h, (i, t) in enumerate(zip(his, ts))]
    passages += [(j, s, h, 2 * h + 1) for h, (j, s) in enumerate(zip(hjs, ss))]
    return [p for _, _, _, p in sorted(passages)]


@pytest.mark.parametrize("family", WORKLOAD_MEMBERS, ids=str)
def test_passage_order_matches_tuple_sort(family, monkeypatch):
    # the Gauss walk must give the code of the tuple-sorted strand order:
    # ids in order of first passage, over on segment i's passage exactly
    # when the hit's flag says so, and the sign of over x under; rect_74
    # is checked on both of its displaced passes, which give one code
    passes = []
    find, decide = knot_id._find_crossings, knot_id._decide_over

    def found(*args):
        vectors, hits = find(*args)
        passes.append([vectors, hits])
        return vectors, hits

    def decided(*args):
        flags = decide(*args)
        passes[-1].append(flags)
        return flags

    monkeypatch.setattr(knot_id, "_find_crossings", found)
    monkeypatch.setattr(knot_id, "_decide_over", decided)
    gauss = extract_diagram(layout(build(family))).gauss
    assert len(passes) == (2 if family == FamilyId("rect_74") else 1)
    for (dxs, dys), hits, flags in passes:
        his, _, hjs, _, _, _ = hits
        ids, want = {}, []
        for p in tuple_strand_order(hits):
            h = p >> 1
            i, j = his[h], hjs[h]
            ids.setdefault(h, len(ids) + 1)
            positive = (dxs[i] * dys[j] - dys[i] * dxs[j] > 0) == flags[h]
            want.append((ids[h], flags[h] != (p & 1), 1 if positive else -1))
        assert gauss == tuple(want)


TORUS_FAMILIES = (
    [FamilyId("star_polygon", p) for p in range(7, 50, 2)]
    + [FamilyId(tag, q) for q in range(2, 6) for tag in ("pinwheel", "odd_wrap")]
    + [FamilyId(tag, q) for q in (3, 5) for tag in ("even_wrap_plus2", "even_wrap_plus4")]
)


@pytest.mark.parametrize("family", TORUS_FAMILIES, ids=str)
def test_torus_families_share_one_handedness(family):
    # the stars, pinwheels and even wraps extract to the all-positive
    # standard diagram; the odd wraps, whose crossings come from their
    # layers, to writhe q^2 - 1
    diagram = extract_diagram(layout(build(family)))
    writhe = sum(c.sign for c in diagram.crossings)
    if family.tag == "odd_wrap":
        assert writhe == family.parameter ** 2 - 1
    else:
        assert writhe == diagram.crossing_count


@pytest.mark.parametrize("panels", [0, 2], ids=["no-panels", "two-panels"])
def test_sourceless_layout_with_mismatched_panels_is_rejected(panels):
    lay = layout(build(FamilyId("odd_wrap", 3)))
    short = FoldedLayout(lay.panels[:panels], lay.centerline)
    with pytest.raises(InconsistencyError, match="panel and centerline counts disagree"):
        extract_diagram(short)


def test_sourceless_layout_without_panels_has_no_width():
    lay = layout(build(FamilyId("odd_wrap", 3)))
    with pytest.raises(InvalidInputError, match="layout has no panels"):
        FoldedLayout((), lay.centerline).width


def test_layout_without_panels_has_no_bounding_box():
    lay = layout(build(FamilyId("odd_wrap", 3)))
    with pytest.raises(InvalidInputError, match="layout has no panels"):
        FoldedLayout((), lay.centerline).bounding_box()
