"""The standard torus-knot diagram and the exact match against it: the
sign convention, agreement of the diagram certificate with Alexander
elimination on the built families, and the codes that must or must not
match."""

import math

import pytest

from ribbonfold import InvalidInputError, layout
from ribbonfold import braid
from ribbonfold.braid import standard_torus_code, torus_handedness
from ribbonfold.constructions import FamilyId, build, knot_type
from ribbonfold.knot_id import (
    KnotDiagram,
    alexander_polynomial,
    certification_report,
    extract_diagram,
    torus_alexander,
)

from diagram_sources import RIGHT_TREFOIL, torus_braid_gauss
# the 37 members the benchmark's knot workload certifies
from test_bit_identity import KNOT_CERTIFY, member_id, program_of

# the families whose torus weave extracts to the standard diagram
STANDARD_TAGS = ("star_polygon", "pinwheel", "even_wrap_plus2", "even_wrap_plus4")


def relabelled(code):
    """The code with ids renumbered in order of first passage."""
    ids = {}
    return [(ids.setdefault(cid, len(ids)), over, sign) for cid, over, sign in code]


def same_up_to_rotation(a, b):
    """Whether two codes differ only by crossing labels and starting point,
    by trying every rotation."""
    target = relabelled(b)
    return len(a) == len(b) and any(
        relabelled(a[r:] + a[:r]) == target for r in range(len(a)))


def mirrored(code):
    return [(cid, not over, -sign) for cid, over, sign in code]


def expected_knot(family):
    params = knot_type(family)
    return params.p, params.q


# ----------------------------------------------------------- sign convention


def test_standard_trefoil_is_the_right_handed_trefoil():
    code = standard_torus_code(3, 2)
    assert sum(c.sign for c in KnotDiagram(code).crossings) == 3
    assert same_up_to_rotation(code, RIGHT_TREFOIL)
    assert not same_up_to_rotation(code, mirrored(RIGHT_TREFOIL))
    assert torus_handedness(RIGHT_TREFOIL, 3, 2) == 1
    assert torus_handedness(RIGHT_TREFOIL, 2, 3) == 1


@pytest.mark.parametrize("p,q", [(3, 2), (2, 5), (7, 2), (4, 3), (3, 5), (7, 3), (5, 4), (9, 7)])
def test_standard_code_is_the_positive_torus_knot(p, q):
    code = standard_torus_code(p, q)
    diagram = KnotDiagram(code)
    assert diagram.crossing_count == max(p, q) * (min(p, q) - 1)
    assert all(c.sign == 1 for c in diagram.crossings)
    assert alexander_polynomial(diagram) == torus_alexander(p, q)
    assert torus_handedness(code, p, q) == 1
    assert torus_handedness(mirrored(code), p, q) == -1


def test_standard_code_read_backward_matches_forward():
    # the match reads codes forward only: a reversed standard diagram is a
    # rotation of the standard one, up to labels
    for q in range(2, 26):
        for p in range(q + 1, 26):
            if math.gcd(p, q) == 1:
                backward = standard_torus_code(p, q)[::-1]
                assert torus_handedness(backward, p, q) == 1, (p, q)
                assert torus_handedness(mirrored(backward), q, p) == -1, (p, q)


@pytest.mark.parametrize("p,q", [(3, 2), (5, 2), (4, 3), (7, 3), (14, 5), (25, 2)])
def test_braid_oracle_codes_are_the_left_handed_torus_knot(p, q):
    # the oracle's closures carry every crossing negative
    assert torus_handedness(torus_braid_gauss(p, q), p, q) == -1


@pytest.mark.parametrize("p,q", [(1, 3), (3, 1), (0, 2), (4, 2), (6, 9), (3.0, 2), (True, 3),
                                 ("3", 2)])
def test_standard_code_rejects_bad_parameters(p, q):
    with pytest.raises(InvalidInputError):
        standard_torus_code(p, q)


def test_match_builds_nothing_for_another_crossing_count(monkeypatch):
    def unreachable(p, q):
        raise AssertionError("the standard diagram was built")

    monkeypatch.setattr(braid, "standard_torus_code", unreachable)
    trefoil = RIGHT_TREFOIL
    for p, q in [(5, 2), (10**6 + 1, 2), (1001, 999)]:
        assert torus_handedness(trefoil, p, q) is None
    assert torus_handedness([], 3, 2) is None
    report = certification_report(KnotDiagram(trefoil), (1001, 999))
    assert (report.certificate, report.matches) == ("alexander", False)


@pytest.mark.parametrize("p,q", [(4, 2), (0, 2), (True, 2), (2, True), (1, 7), (7, 1),
                                 (3.0, 2), ("3", 2)])
@pytest.mark.parametrize("gauss", [[], RIGHT_TREFOIL], ids=["empty", "trefoil"])
def test_match_rejects_bad_parameters_whatever_the_code_length(gauss, p, q):
    # checked before the crossing-count shortcut, so a code of any length
    # meets the same error as standard_torus_code
    with pytest.raises(InvalidInputError):
        torus_handedness(gauss, p, q)


def test_certification_against_an_unknot_torus_type_skips_the_match():
    # T(p, 1) is the unknot: its reference polynomial is 1, and there is no
    # braid diagram to match, so elimination gives the verdict
    for expected in [(7, 1), (1, 7), (1, 1)]:
        report = certification_report(KnotDiagram(RIGHT_TREFOIL), expected)
        assert (report.certificate, report.handedness) == ("alexander", None)
        assert report.matches is False


# ----------------------------------------------------- built families


@pytest.mark.parametrize("member", KNOT_CERTIFY, ids=member_id)
def test_certificate_agrees_with_elimination_on_the_workload(member):
    family = member[0]
    diagram = extract_diagram(layout(program_of(member)))
    report = certification_report(diagram, family)
    assert report.matches
    assert report.alexander == alexander_polynomial(diagram)
    # the odd wraps are not minimal diagrams, the shorts are not closed
    # braids of their knot, and 7_4 is not a torus knot
    if family.tag in STANDARD_TAGS:
        assert (report.certificate, report.handedness) == ("diagram", 1)
    else:
        assert (report.certificate, report.handedness) == ("alexander", None)


SWEEP = (
    [FamilyId("star_polygon", p) for p in range(7, 302, 2)]
    + [FamilyId("pinwheel", q) for q in range(2, 21)]
    + [FamilyId(tag, q) for q in range(3, 22, 2) for tag in ("even_wrap_plus2", "even_wrap_plus4")]
)


@pytest.mark.parametrize("family", SWEEP, ids=str)
def test_certificate_agrees_with_elimination_on_the_sweep(family):
    diagram = extract_diagram(layout(build(family)))
    report = certification_report(diagram, expected_knot(family))
    assert (report.certificate, report.handedness, report.matches) == ("diagram", 1, True)
    assert report.alexander == alexander_polynomial(diagram)


@pytest.mark.parametrize("family", [FamilyId("pinwheel", 3), FamilyId("star_polygon", 9),
                                    FamilyId("even_wrap_plus2", 3), FamilyId("even_wrap_plus4", 5)],
                         ids=str)
def test_relabelled_rotated_and_reversed_codes_still_match(family):
    p, q = expected_knot(family)
    code = list(extract_diagram(layout(build(family))).gauss)
    n = len(code)
    # ids far from the extracted 1..c, in another order
    renamed = [(1000 - 7 * cid, over, sign) for cid, over, sign in code]
    for variant in (renamed, renamed[5:] + renamed[:5], renamed[::-1],
                    (renamed[::-1])[n // 2:] + (renamed[::-1])[:n // 2]):
        report = certification_report(KnotDiagram(variant), (p, q))
        assert (report.certificate, report.handedness, report.matches) == ("diagram", 1, True)
        mirror = certification_report(KnotDiagram(mirrored(variant)), (p, q))
        assert (mirror.certificate, mirror.handedness, mirror.matches) == ("diagram", -1, True)
        assert mirror.alexander == alexander_polynomial(KnotDiagram(mirrored(variant)))


@pytest.mark.parametrize("family", [FamilyId("pinwheel", 2), FamilyId("pinwheel", 3),
                                    FamilyId("star_polygon", 7), FamilyId("star_polygon", 11),
                                    FamilyId("even_wrap_plus2", 3)], ids=str)
def test_a_single_flipped_crossing_falls_back_to_elimination(family):
    p, q = expected_knot(family)
    code = extract_diagram(layout(build(family))).gauss
    for flipped_id in (1, len(code) // 4 + 1):
        flipped = KnotDiagram([(cid, not over, -sign) if cid == flipped_id else (cid, over, sign)
                               for cid, over, sign in code])
        report = certification_report(flipped, (p, q))
        delta = alexander_polynomial(flipped)
        assert (report.certificate, report.handedness) == ("alexander", None)
        assert report.alexander == delta
        # the verdict that Alexander elimination alone gives
        assert report.matches == (torus_alexander(p, q) in (delta, delta.mirror()))
