"""Unit tests for diagram extraction and Alexander certification."""

import dataclasses
import math
from fractions import Fraction

import pytest

from ribbonfold import (
    DegenerateDiagramError,
    InvalidDiagramError,
    InvalidInputError,
    LayeringInconsistencyError,
    MalformedProgramError,
    Point,
    WeaveRule,
    layout,
    layout_from_centerline,
    to_svg,
    unfold,
)
from ribbonfold import determinant
from ribbonfold.constructions import FamilyId, build, knot_type
from ribbonfold.determinant import _terms
from ribbonfold.knot_id import (
    CertificationReport,
    Crossing,
    KnotDiagram,
    LaurentPolynomial,
    alexander_polynomial,
    certification_report,
    extract_diagram,
    torus_alexander,
    verify_knot_type,
)

from diagram_sources import (
    _pdiv_exact,
    _pmul,
    _poly_bareiss as oracle_bareiss,
    dense_alexander,
    dense_minor,
    pretzel_gauss,
    torus_braid_gauss,
)
# the 37 members the benchmark's knot workload certifies
from test_bit_identity import KNOT_CERTIFY, member_id, program_of


def poly(*coeffs):
    """Polynomial from ascending integer coefficients."""
    return LaurentPolynomial({e: c for e, c in enumerate(coeffs) if c})


def pentagram_program(heights, weave=None, width=0.1):
    """Closed program whose centerline is a regular five-point star."""
    pts = [
        Point(math.cos(2.0 * math.pi * (2 * k) / 5.0), math.sin(2.0 * math.pi * (2 * k) / 5.0))
        for k in range(5)
    ]
    lay = layout_from_centerline(pts, width, heights, closed=True)
    return dataclasses.replace(unfold(lay), weave=weave, label="pentagram")


# ---------------------------------------------------------- LaurentPolynomial


def test_polynomial_basics():
    p = poly(1, -1, 1)
    assert p.coefficients == {0: 1, 1: -1, 2: 1}
    assert LaurentPolynomial().is_zero() and LaurentPolynomial({3: 0}).is_zero()
    assert not p.is_zero()
    assert p.evaluate(2) == 3
    assert p.evaluate(-1) == 3
    # against a power sum over Fractions: same value, and an int exactly
    # when the value is integral
    for delta in (torus_alexander(5, 3), p, poly(4, -7, 4), poly(1), LaurentPolynomial()):
        for x in (0, 1, -1, 2, 10**50, -(10**50), Fraction(1, 3), Fraction(-4, 2)):
            total = sum((c * Fraction(x) ** e for e, c in delta.coefficients.items()), Fraction(0))
            want = int(total) if total.denominator == 1 else total
            got = delta.evaluate(x)
            assert got == want and type(got) is type(want), (delta, x)
    assert str(poly(4, -7, 4)) == "4*t^2 - 7*t + 4"
    assert str(poly(1, -1, 1)) == "t^2 - t + 1"


def test_polynomial_evaluates_only_at_ints_and_fractions():
    trefoil = torus_alexander(3, 2)
    assert trefoil.evaluate(-1) == 3
    assert trefoil.evaluate(Fraction(1, 2)) == Fraction(3, 4)
    for bad in (0.5, 2.0, "x", True, None, 1j):
        with pytest.raises(InvalidInputError, match="evaluates at an int or a Fraction"):
            trefoil.evaluate(bad)


def test_polynomial_normalization():
    # only the representative up to +-t^k is kept: lowest exponent 0,
    # positive constant term
    shifted = LaurentPolynomial({-3: -4, -2: 7, -1: -4})
    assert shifted == poly(4, -7, 4)
    assert shifted.coefficients == {0: 4, 1: -7, 2: 4}
    assert hash(shifted) == hash(poly(4, -7, 4))
    assert LaurentPolynomial.from_list([0, 0, -1, 1]) == poly(1, -1)
    # mirror is the polynomial at 1/t
    assert poly(4, -7, 4).mirror() == poly(4, -7, 4)
    assert poly(1, 2, 3).mirror() == poly(3, 2, 1) != poly(1, 2, 3)
    assert poly(1, 0, -2).mirror().coefficients == {0: 2, 2: -1}


@pytest.mark.parametrize("coeffs", [
    [], [0, 0], [5], [-1], [0, 0, -1, 1, 0], [0, -3, 0, 2, 0, 0], [2, 0, -2],
    [0, -(10**30), 0, 7, 0], [0, 1, -1, 1, -1, 0, 0, 0], [-4, 7, -4],
])
def test_from_list_matches_the_mapping_constructor(coeffs):
    # zeros at both ends and a negative lowest or highest coefficient
    # normalize the same way through either constructor
    assert LaurentPolynomial.from_list(coeffs) == LaurentPolynomial(dict(enumerate(coeffs)))


def test_polynomial_rejects_non_integers():
    with pytest.raises(InvalidInputError):
        LaurentPolynomial({0: 1.5})
    with pytest.raises(InvalidInputError):
        LaurentPolynomial({0.5: 1})
    # only a mapping gives exponents; these once raised TypeError and
    # ValueError from dict()
    for arg in ([1, 2], "ab", 5, [(0, 1)]):
        with pytest.raises(InvalidInputError):
            LaurentPolynomial(arg)
    # the dense representative has a slot per exponent of the span, so a
    # span past the degree limit is refused before anything is allocated
    for terms in ({0: 1, 2**63: 1}, {-1: 1, 10**6: 1}, {0: 1, 10**10: -2}):
        with pytest.raises(InvalidInputError):
            LaurentPolynomial(terms)
    assert LaurentPolynomial({-5: 1, 10**6 - 5: -1}).coefficients == {0: 1, 10**6: -1}
    # from_list refuses the same coefficients and spans
    for coeffs in ([1, True], [1, 2.0], [1, "2"]):
        with pytest.raises(InvalidInputError, match="coefficients must be integers"):
            LaurentPolynomial.from_list(coeffs)
    # a value that is not iterable is refused too; these once raised TypeError
    for arg in (None, 5, 3.0):
        with pytest.raises(InvalidInputError):
            LaurentPolynomial.from_list(arg)
    # a mapping iterates its keys and bytes their values; these were once
    # read as the coefficients 3, 0 and 1 + 2t
    for arg in ({3: 1, 0: 2}, {0: 5}, b"\x01\x02"):
        with pytest.raises(InvalidInputError, match="must be a sequence of integers"):
            LaurentPolynomial.from_list(arg)
    with pytest.raises(InvalidInputError, match="exceeds 1000000"):
        LaurentPolynomial.from_list([0, 1] + [0] * 10**6 + [-1, 0])
    assert LaurentPolynomial.from_list([0, 1] + [0] * (10**6 - 1) + [-1, 0]).coefficients == {
        0: 1, 10**6: -1}


# -------------------------------------------------------------- torus oracle


def test_torus_alexander_small_cases():
    assert torus_alexander(3, 2) == poly(1, -1, 1)
    assert torus_alexander(7, 2) == poly(1, -1, 1, -1, 1, -1, 1)
    assert torus_alexander(5, 1) == poly(1)
    assert torus_alexander(1, 1) == poly(1)


def test_torus_alexander_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        torus_alexander(4, 2)
    with pytest.raises(InvalidInputError):
        torus_alexander(6, 3)
    with pytest.raises(InvalidInputError):
        torus_alexander(0, 1)


def test_torus_alexander_degree_limit():
    # the reference is dense in its degree (p-1)(q-1), at most 10**6
    with pytest.raises(InvalidInputError, match="exceeds 1000000"):
        torus_alexander(10**20 - 1, 2)
    with pytest.raises(InvalidInputError, match="exceeds 1000000"):
        torus_alexander(1002, 1001)
    assert torus_alexander(1, 10**20) == torus_alexander(10**20, 1) == poly(1)


def test_torus_alexander_degree_and_symmetry():
    for p, q in [(3, 2), (5, 2), (4, 3), (5, 3), (8, 3), (7, 4), (11, 5)]:
        delta = torus_alexander(p, q)
        assert max(delta.coefficients) == (p - 1) * (q - 1)
        assert delta.mirror() == delta
        assert abs(delta.evaluate(1)) == 1


def test_torus_alexander_matches_the_division_oracle():
    # Delta is the exact quotient (t^pq - 1)(t - 1) / ((t^p - 1)(t^q - 1)):
    # dividing by t^p - 1 and then by Delta must leave t^q - 1 exactly, a
    # division whose quotient has two terms even at degree 998 000
    def t_power_minus_one(k):
        return [-1] + [0] * (k - 1) + [1]

    pairs = [(p, q) for p in range(1, 61) for q in range(1, 61) if math.gcd(p, q) == 1]
    for p, q in pairs + [(1001, 999)]:
        delta = torus_alexander(p, q).coefficients
        dense = [delta.get(e, 0) for e in range(max(delta) + 1)]
        numerator = _pmul(t_power_minus_one(p * q), t_power_minus_one(1))
        assert _pdiv_exact(_pdiv_exact(numerator, t_power_minus_one(p)), dense) \
            == t_power_minus_one(q), (p, q)


# -------------------------------------------------------------- Gauss codes


def test_knot_diagram_rejects_malformed_codes():
    for gauss in ([],
                  [(1, True, 1)],
                  [(1, True, 1), (1, True, 1)],
                  [(1, True, 1), (1, False, -1)],
                  [(1, True, 1), (1, False, 1), (2, True, 1), (2, True, -1)],
                  [(1, True, 2), (1, False, 2)],
                  [(1, True, 0), (1, False, 0)],
                  [(1, True, 1), (2, False, 1)],
                  [(1, True, 1), (1, True, 1), (1, True, 1), (1, False, 1)],
                  [(1, True, 1), (1, False, 1), (1, True, 1), (1, False, 1)],
                  # entries that int() and truth value would coerce
                  [(1.5, "no", 1.9), (1, "", 1)],
                  [(1.0, True, 1), (1.0, False, 1)],
                  [("1", True, 1), ("1", False, 1)],
                  [(True, True, 1), (True, False, 1)],
                  [(1, True, 1.0), (1, False, 1.0)],
                  [(1, True, True), (1, False, True)],
                  [(1, 2, 1), (1, 0, 1)],
                  [(1, 1.0, 1), (1, 0, 1)],
                  [(1, "yes", 1), (1, None, 1)],
                  # not a sequence of triples
                  5,
                  None,
                  [(1, True)],
                  [(1, True, 1), (1, False)],
                  [(1, True, 1, 0), (1, False, 1, 0)],
                  [5, 6],
                  [None]):
        with pytest.raises(InvalidDiagramError):
            KnotDiagram(gauss)
    # the ints 0 and 1 stand for the over flags False and True
    assert KnotDiagram([(1, 1, -1), (1, 0, -1)]).gauss == ((1, True, -1), (1, False, -1))


def test_knot_diagram_is_built_from_its_gauss_code_only():
    diagram = KnotDiagram(torus_braid_gauss(3, 2))
    with pytest.raises(TypeError):
        KnotDiagram(diagram.gauss, diagram.crossings)
    with pytest.raises(ValueError):
        dataclasses.replace(diagram, crossings=diagram.crossings[:-1])
    assert dataclasses.replace(diagram) == diagram


def test_crossing_is_a_named_tuple_of_its_fields():
    c = Crossing(4, 0, 1, 2, -1)
    assert tuple(c) == (4, 0, 1, 2, -1)
    assert Crossing._fields == ("id", "over_arc", "under_in_arc", "under_out_arc", "sign")


def test_single_kink_is_the_unknot():
    diagram = KnotDiagram([(1, True, 1), (1, False, 1)])
    assert alexander_polynomial(diagram) == poly(1)


def test_braid_codes_match_torus_polynomials():
    for p, q in [(3, 2), (5, 2), (7, 2), (4, 3), (5, 3), (7, 3), (5, 4), (8, 3), (10, 3)]:
        diagram = KnotDiagram(torus_braid_gauss(p, q))
        assert diagram.crossing_count == p * (q - 1)
        assert alexander_polynomial(diagram) == torus_alexander(p, q), (p, q)


def test_large_braid_agrees_with_torus_polynomial():
    diagram = KnotDiagram(torus_braid_gauss(14, 5))
    assert diagram.crossing_count == 56
    assert alexander_polynomial(diagram) == torus_alexander(14, 5)


def _oracle_diagrams():
    """Braid, pretzel and extracted diagrams, by name."""
    out = {"T(%d,%d)" % pq: KnotDiagram(torus_braid_gauss(*pq))
           for pq in [(7, 3), (14, 5), (25, 2)]}
    for abc in [(1, 1, 1), (3, 3, 1), (3, 3, 3), (5, 3, 1)]:
        out["P%r" % (abc,)] = KnotDiagram(pretzel_gauss(*abc))
    for tag in ("short_52", "short_72", "rect_74"):
        out[tag] = extract_diagram(layout(build(FamilyId(tag))))
    return out


def test_sparse_determinant_matches_dense_oracle():
    diagrams = _oracle_diagrams()
    # the oracle's two dense methods agree with each other first
    seven_three = diagrams["T(7,3)"]
    assert (dense_alexander(seven_three, method="exact")
            == dense_alexander(seven_three, method="interpolate")
            == torus_alexander(7, 3))
    for name, diagram in diagrams.items():
        delta = alexander_polynomial(diagram)
        assert delta == dense_alexander(diagram), name
        n = diagram.crossing_count
        if n > 14:
            continue
        # every first minor gives the one polynomial up to +-t^k
        for r in range(n):
            for c in range(n):
                assert dense_alexander(diagram, row=r, col=c) == delta, (name, r, c)


@pytest.fixture
def bareiss_blocks(monkeypatch):
    """The rows of each block handed to fraction-free elimination."""
    blocks = []
    bareiss = determinant._poly_bareiss

    def recorded(matrix):
        blocks.append(len(matrix))
        return bareiss(matrix)

    monkeypatch.setattr(determinant, "_poly_bareiss", recorded)
    return blocks


# rows of the Bareiss block the default minor leaves for each star and
# fixed fold; a wrap, pinwheel or even wrap at q leaves q - 1 rows
FIXED_BLOCKS = {"star_polygon": 1, "short_52": 3, "short_72": 5, "rect_74": 4}


@pytest.mark.parametrize("member", KNOT_CERTIFY, ids=member_id)
def test_default_minor_keeps_every_unit_pivot(member, bareiss_blocks):
    # the minor deletes the last row's own unit column, so no column
    # loses its only unit pivot to the deletion
    alexander_polynomial(extract_diagram(layout(program_of(member))))
    (default,) = bareiss_blocks
    family = member[0]
    # a unit pivot whose cost fell after its heap key was pushed must still
    # be taken, or the block grows
    want = FIXED_BLOCKS[family.tag] if family.tag in FIXED_BLOCKS else family.parameter - 1
    assert default == want


# odd_wrap q=40 (T(41,40), 3159 crossings) and the even wraps at q=21
# (T(44,21), 880 crossings, and T(46,21), 920 crossings) are at the paper's
# sizes, where the Alexander determinant, not extraction, takes the time
@pytest.mark.parametrize("tag,n", [
    ("odd_wrap", 10), ("odd_wrap", 20), ("pinwheel", 7), ("star_polygon", 101),
    ("odd_wrap", 40), ("even_wrap_plus2", 21), ("even_wrap_plus4", 21),
])
def test_large_constructions_certify(tag, n, bareiss_blocks):
    family = FamilyId(tag, n)
    params = knot_type(family)
    diagram = extract_diagram(layout(build(family)))
    report = certification_report(diagram, (params.p, params.q))
    assert report.matches, report.summary()
    assert report.crossing_bound_ok
    # the odd wraps are not their knot's standard diagram, so elimination
    # certifies them; the other families match it, and the elimination
    # they skip agrees and leaves the same block
    if tag == "odd_wrap":
        assert (report.certificate, report.handedness) == ("alexander", None)
    else:
        assert (report.certificate, report.handedness) == ("diagram", 1)
        assert bareiss_blocks == []
        assert alexander_polynomial(diagram) == report.alexander
    assert bareiss_blocks == [FIXED_BLOCKS.get(tag, n - 1)]


def test_certification_report_expected_forms():
    seven_four = KnotDiagram(pretzel_gauss(3, 3, 1))
    # the rectangle's family compares with the table's 7_4 coefficients
    report = certification_report(seven_four, FamilyId("rect_74"))
    assert report.matches and report.reference == poly(4, -7, 4)
    assert (report.p, report.crossing_bound, report.determinant) == (None, None, 15)
    assert (report.certificate, report.handedness) == ("alexander", None)
    assert report.summary() == "Alexander 4*t^2 - 7*t + 4 vs 4*t^2 - 7*t + 4 -> MATCH"
    # nothing expected: invariants only, no verdict
    bare = certification_report(seven_four, None)
    assert (bare.reference, bare.matches, bare.determinant) == (None, None, 15)
    assert bare.alexander == alexander_polynomial(seven_four)
    # a torus family resolves to the same report as its (p, q)
    trefoil = KnotDiagram(torus_braid_gauss(3, 2))
    assert (certification_report(trefoil, FamilyId("odd_wrap", 2))
            == certification_report(trefoil, (3, 2))
            == certification_report(trefoil, [3, 2]))
    # verify_knot_type hands its expected knot to the same check
    with pytest.raises(InvalidInputError):
        verify_knot_type(build(FamilyId("odd_wrap", 2)), (3.9, 2.2))
    assert not certification_report(trefoil, (5, 2)).matches


@pytest.mark.parametrize("expected", [
    (3.9, 2.2), ("3", "2"), (True, 2), (3, False), (3, 2, 7), (3,), [3], 5, "32", {3: 2},
])
def test_certification_report_rejects_a_malformed_expected_knot(expected):
    trefoil = KnotDiagram(torus_braid_gauss(3, 2))
    with pytest.raises(InvalidInputError):
        certification_report(trefoil, expected)


# each once raised a bare AttributeError, such as "'str' object has no
# attribute 'width'" from layout("x")
@pytest.mark.parametrize("call,kind", [
    (layout, "FoldProgram"),
    (unfold, "FoldedLayout"),
    (extract_diagram, "FoldedLayout"),
    (alexander_polynomial, "KnotDiagram"),
    (lambda value: certification_report(value, (3, 2)), "KnotDiagram"),
    (lambda value: verify_knot_type(value, (3, 2)), "FoldProgram"),
    (to_svg, "FoldedLayout"),
], ids=["layout", "unfold", "extract_diagram", "alexander_polynomial",
        "certification_report", "verify_knot_type", "to_svg"])
@pytest.mark.parametrize("bad", ["x", None, 2.5, (0, True, 1)], ids=repr)
def test_entry_points_name_the_type_they_expect(call, kind, bad):
    got = type(bad).__name__
    with pytest.raises(InvalidInputError, match="^expected a %s, got %s$" % (kind, got)):
        call(bad)


def test_summary_without_a_reference_gives_no_verdict():
    trefoil = KnotDiagram(torus_braid_gauss(3, 2))
    assert (certification_report(trefoil, None).summary()
            == "Alexander t^2 - t + 1, no reference")
    assert (certification_report(trefoil, (3, 2)).summary()
            == "(3,2): 3 crossings (bound 3 ok), det 3, Alexander t^2 - t + 1 vs t^2 - t + 1"
            " -> MATCH")
    assert (certification_report(trefoil, (5, 2)).summary()
            == "(5,2): 3 crossings (bound 5 VIOLATED), det 3, Alexander t^2 - t + 1"
            " vs t^4 - t^3 + t^2 - t + 1 -> MISMATCH")


def test_pretzel_oracles():
    # pretzel (a,b,c) has determinant ab+bc+ca; (3,3,1) is the knot
    # whose Alexander polynomial certifies the rectangle construction
    trefoil = KnotDiagram(pretzel_gauss(1, 1, 1))
    assert alexander_polynomial(trefoil) == torus_alexander(3, 2)
    seven_four = KnotDiagram(pretzel_gauss(3, 3, 1))
    assert seven_four.crossing_count == 7
    delta = alexander_polynomial(seven_four)
    assert delta == poly(4, -7, 4)
    assert abs(delta.evaluate(-1)) == 15
    assert alexander_polynomial(KnotDiagram(pretzel_gauss(3, 3, 3))) == poly(7, -13, 7)
    assert alexander_polynomial(KnotDiagram(pretzel_gauss(5, 3, 1))) == poly(6, -11, 6)


def test_determinant_invariant_values():
    for p in (3, 5, 7):
        diagram = KnotDiagram(torus_braid_gauss(p, 2))
        report = certification_report(diagram, None)
        assert report.determinant == p


def test_row_column_independence():
    for p, q in [(3, 2), (4, 3)]:
        diagram = KnotDiagram(torus_braid_gauss(p, q))
        n = diagram.crossing_count
        assert n <= 10
        reference = alexander_polynomial(diagram)
        for r in range(n):
            for c in range(n):
                assert dense_alexander(diagram, row=r, col=c) == reference


SMALL_DIAGRAMS = {
    "T(3,2)": lambda: KnotDiagram(torus_braid_gauss(3, 2)),
    "T(4,3)": lambda: KnotDiagram(torus_braid_gauss(4, 3)),
    "P(3,3,1)": lambda: KnotDiagram(pretzel_gauss(3, 3, 1)),
    "short_52": lambda: extract_diagram(layout(build(FamilyId("short_52")))),
}


@pytest.mark.parametrize("name", SMALL_DIAGRAMS)
def test_unit_pivot_det_matches_bareiss_oracle_on_every_minor(name):
    # alexander_polynomial eliminates one minor only; the sparse
    # determinant must hold on every other, whose unit pivots differ
    diagram = SMALL_DIAGRAMS[name]()
    n = diagram.crossing_count
    for r in range(n):
        for c in range(n):
            matrix = dense_minor(diagram, r, c)
            columns = [j for j in range(n) if j != c]
            rows = [{j: list(v) for j, v in zip(columns, row) if v} for row in matrix]
            want = _terms(oracle_bareiss(matrix))
            got = determinant._unit_pivot_det(rows, columns)
            assert got in (want, [(e, -k) for e, k in want]), (r, c)


def test_alexander_symmetry_from_braids():
    for p, q in [(3, 2), (5, 2), (4, 3), (7, 3)]:
        delta = alexander_polynomial(KnotDiagram(torus_braid_gauss(p, q)))
        assert delta.mirror() == delta
        assert abs(delta.evaluate(1)) == 1


# --------------------------------------------------------------- extraction


def test_extraction_rejects_open_strips():
    pts = [Point(0, 0), Point(3, 0), Point(3, 2)]
    lay = layout_from_centerline(pts, 0.4, [0, 1], closed=False)
    prog = unfold(lay)
    with pytest.raises(DegenerateDiagramError):
        extract_diagram(layout(prog))


def test_extraction_rejects_crossing_free_loops():
    s = math.sqrt(3.0) / 2.0
    pts = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, s)]
    lay = layout_from_centerline(pts, 0.1, [0, 1, 2], closed=True)
    prog = unfold(lay)
    with pytest.raises(DegenerateDiagramError):
        extract_diagram(layout(prog))


def test_pentagram_torus_weave_is_the_5_2_knot():
    prog = pentagram_program([0, 1, 2, 3, 4], weave=WeaveRule("torus"))
    diagram = extract_diagram(layout(prog))
    assert diagram.crossing_count == 5
    delta = alexander_polynomial(diagram)
    assert delta == torus_alexander(5, 2)
    assert abs(delta.evaluate(-1)) == 5


def test_torus_weave_rejects_a_crossing_at_one_parameter_on_both_segments():
    # a bowtie: segments 0 and 2 are the diagonals of a square and cross
    # at both their midpoints, so neither lies further along its own
    pts = [Point(0, 0), Point(2, 2), Point(2, 0), Point(0, 2)]
    lay = layout_from_centerline(pts, 0.1, [0, 1, 2, 3], closed=True)
    prog = dataclasses.replace(unfold(lay), weave=WeaveRule("torus"))
    with pytest.raises(LayeringInconsistencyError, match="cannot order segments 0 and 2"):
        extract_diagram(layout(prog))


def test_pentagram_gauss_is_stable_under_perturbation_choice():
    prog = pentagram_program([0, 1, 2, 3, 4], weave=WeaveRule("torus"))
    lay = layout(prog)
    d1 = extract_diagram(lay, perturbation=1e-4)
    d2 = extract_diagram(lay, perturbation=1e-5)
    assert d1.gauss == d2.gauss


def test_layer_tie_is_a_hard_error():
    prog = pentagram_program([0, 1, 0, 1, 2])
    with pytest.raises(LayeringInconsistencyError):
        extract_diagram(layout(prog))


def test_explicit_weave_matches_layer_heights():
    spiral = pentagram_program([0, 1, 2, 3, 4])
    pairs = tuple(
        (j, i, 1) for i in range(5) for j in range(i + 2, 5) if (i, j) != (0, 4)
    )
    explicit = pentagram_program([0, 1, 2, 3, 4], weave=WeaveRule("explicit", pairs))
    d_layers = extract_diagram(layout(spiral))
    d_explicit = extract_diagram(layout(explicit))
    assert d_layers.gauss == d_explicit.gauss
    # a pair naming no segment of the five matches no crossing
    stray = pairs + ((-1, 2, -1), (0, 5, 1), (-3, 9, 1))
    padded = pentagram_program([0, 1, 2, 3, 4], weave=WeaveRule("explicit", stray))
    assert extract_diagram(layout(padded)).gauss == d_layers.gauss


@pytest.mark.parametrize("first", [True, False], ids=["listed-first", "listed-last"])
def test_explicit_weave_rejects_a_pair_against_the_layers(first):
    # the layers of odd_wrap q=2 put segment 2 over segment 0; with
    # (0, 2, 1) listed as well, the verdict once hung on the listing order
    prog = build(FamilyId("odd_wrap", 2))
    layers = [p.layer for p in layout(prog).panels]
    derived = tuple((i, j, 1 if layers[i] > layers[j] else -1)
                    for i, j in ((0, 2), (0, 3), (1, 3), (1, 4), (2, 4)))
    assert derived[0] == (0, 2, -1)
    explicit = dataclasses.replace(prog, weave=WeaveRule("explicit", derived))
    assert alexander_polynomial(extract_diagram(layout(explicit))) == poly(1, -1, 1)
    pairs = ((0, 2, 1),) + derived if first else derived + ((0, 2, 1),)
    with pytest.raises(MalformedProgramError, match="contradicts an earlier pair"):
        WeaveRule("explicit", pairs)


def test_explicit_weave_missing_pair_is_an_error():
    prog = pentagram_program(
        [0, 1, 2, 3, 4], weave=WeaveRule("explicit", ((2, 0, 1),))
    )
    with pytest.raises(LayeringInconsistencyError):
        extract_diagram(layout(prog))


def test_gauss_validity_of_extracted_diagram():
    prog = pentagram_program([0, 1, 2, 3, 4], weave=WeaveRule("torus"))
    diagram = extract_diagram(layout(prog))
    assert KnotDiagram(diagram.gauss).crossing_count == 5
    assert sorted(cid for cid, _, _ in diagram.gauss) == sorted(
        list(range(1, 6)) + list(range(1, 6))
    )


# ------------------------------------------------------------- verification


def test_verify_knot_type_match_and_mismatch():
    prog = pentagram_program([0, 1, 2, 3, 4], weave=WeaveRule("torus"))
    good = verify_knot_type(prog, (5, 2))
    assert isinstance(good, CertificationReport)
    assert good.matches
    assert good.crossing_count == 5
    assert good.crossing_bound == 5
    assert good.crossing_bound_ok
    assert good.determinant == 5
    assert "MATCH" in good.summary()

    bad = verify_knot_type(prog, (7, 2))
    assert not bad.matches
    assert "MISMATCH" in bad.summary()
