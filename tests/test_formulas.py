"""Tests for closed-form ratios, quotients, and the bound tables."""

import csv
import io
import math
import random

import pytest

from ribbonfold.constructions import FamilyId
from ribbonfold.errors import InvalidInputError, NotApplicableError, ParameterError
from ribbonfold.formulas import (
    FIGURE_EIGHT_CROSSINGS,
    FIGURE_EIGHT_RATIO,
    RECT_74_CROSSINGS,
    bounds_table,
    closed_form_ratio,
    crossing_number,
    family_crossing_number,
    kusner_quotient,
    limit_constant,
    quotient_table,
    ratio_report,
    ratio_reports,
    significant,
)


def cot(x):
    return 1.0 / math.tan(x)


def test_half_angle_identity_sweep():
    # (1 + cos 2x) / sin 2x collapses to cot x
    rng = random.Random(20260815)
    for _ in range(10000):
        x = rng.uniform(1e-6, math.pi / 2 - 1e-6)
        lhs = (1.0 + math.cos(2.0 * x)) / math.sin(2.0 * x)
        assert abs(lhs - cot(x)) <= 1e-12 * max(1.0, abs(cot(x)))


def test_cot_csc_identity_sweep():
    # cot x + csc x collapses to cot(x / 2)
    rng = random.Random(99)
    for _ in range(10000):
        x = rng.uniform(1e-6, math.pi / 2 - 1e-6)
        lhs = cot(x) + 1.0 / math.sin(x)
        rhs = cot(x / 2.0)
        assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(rhs))


def test_heptagon_edge_chain():
    # the q=3 trapezoid edges recombine into the closed form ratio
    n = 7
    b = 1.0 / (2.0 * math.sin(math.pi / (2 * n)))
    t = math.cos(3.0 * math.pi / (2 * n)) / math.sin(math.pi / n)
    w = math.cos(math.pi / (2 * n))
    assert abs(3.0 * (b + t) / w - 6.0 * cot(math.pi / 7)) <= 1e-12


@pytest.mark.parametrize(
    "family,presentation,value,symbolic",
    [
        (FamilyId("odd_wrap", 2), "closed", 5 * cot(math.pi / 5), "5*cot(pi/5)"),
        (FamilyId("odd_wrap", 2), "truncated", 4 * cot(math.pi / 5), "4*cot(pi/5)"),
        (FamilyId("odd_wrap", 3), "closed", 7 * cot(math.pi / 7), "7*cot(pi/7)"),
        (FamilyId("odd_wrap", 3), "truncated", 6 * cot(math.pi / 7), "6*cot(pi/7)"),
        (FamilyId("star_polygon", 7), "closed", 7 * cot(math.pi / 7), "7*cot(pi/7)"),
        (FamilyId("pinwheel", 2), "closed", 5 * cot(math.pi / 10), "5*cot(pi/10)"),
        (FamilyId("even_wrap_plus2", 3), "closed", 8 * cot(math.pi / 8), "8*cot(pi/8)"),
        (FamilyId("even_wrap_plus4", 3), "closed", 10 * cot(math.pi / 10), "10*cot(pi/10)"),
        (FamilyId("short_52"), "closed", 7 * cot(math.pi / 5), "7*cot(pi/5)"),
        (FamilyId("short_72"), "closed", 9 * cot(math.pi / 5), "9*cot(pi/5)"),
        (FamilyId("rect_74"), "closed", 24.0, "24"),
    ],
)
def test_closed_form_values(family, presentation, value, symbolic):
    formula = closed_form_ratio(family, presentation)
    assert abs(formula.value - value) <= 1e-12 * value
    assert formula.symbolic() == symbolic


def test_short_formulas_are_flagged_as_limits():
    assert closed_form_ratio(FamilyId("short_52")).limit
    assert closed_form_ratio(FamilyId("short_72")).limit
    assert not closed_form_ratio(FamilyId("odd_wrap", 2)).limit
    assert not closed_form_ratio(FamilyId("rect_74")).limit


def test_reference_constants_to_one_decimal():
    assert abs(closed_form_ratio(FamilyId("pinwheel", 2)).value - 15.4) < 0.05
    assert abs(closed_form_ratio(FamilyId("star_polygon", 7)).value - 14.5) < 0.05
    assert abs(closed_form_ratio(FamilyId("short_52")).value - 9.6) < 0.05
    assert abs(closed_form_ratio(FamilyId("short_72")).value - 12.4) < 0.05
    assert closed_form_ratio(FamilyId("rect_74")).value == 24.0


def test_truncated_requires_odd_wrap():
    with pytest.raises(ParameterError):
        closed_form_ratio(FamilyId("star_polygon", 7), "truncated")
    with pytest.raises(ParameterError):
        closed_form_ratio(FamilyId("odd_wrap", 2), "open")


@pytest.mark.parametrize(
    "p,q,expected",
    [(3, 2, 3), (5, 2, 5), (7, 2, 7), (4, 3, 8), (5, 3, 10), (10, 3, 20), (8, 3, 16)],
)
def test_crossing_number_examples(p, q, expected):
    assert crossing_number(p, q) == expected


@pytest.mark.parametrize("p,q", [(4, 2), (9, 3), (2, 1), (1, 2), (3.0, 2), (3, True)])
def test_crossing_number_rejects(p, q):
    with pytest.raises(InvalidInputError):
        crossing_number(p, q)


def test_family_crossing_numbers():
    assert family_crossing_number(FamilyId("odd_wrap", 3)) == 8
    assert family_crossing_number(FamilyId("star_polygon", 9)) == 9
    assert family_crossing_number(FamilyId("pinwheel", 3)) == 14
    assert family_crossing_number(FamilyId("even_wrap_plus2", 3)) == 16
    assert family_crossing_number(FamilyId("even_wrap_plus4", 3)) == 20
    assert family_crossing_number(FamilyId("rect_74")) == RECT_74_CROSSINGS == 7


@pytest.mark.parametrize(
    "family,presentation,expected",
    [
        (FamilyId("odd_wrap", 2), "truncated", (4.0 / 3.0) * cot(math.pi / 5)),
        (FamilyId("odd_wrap", 2), "closed", (5.0 / 3.0) * cot(math.pi / 5)),
        (FamilyId("star_polygon", 7), "closed", cot(math.pi / 7)),
        (FamilyId("pinwheel", 2), "closed", cot(math.pi / 10)),
        (FamilyId("even_wrap_plus2", 3), "closed", cot(math.pi / 8) / 2.0),
        (FamilyId("even_wrap_plus4", 3), "closed", cot(math.pi / 10) / 2.0),
        (FamilyId("short_52"), "closed", 7.0 * cot(math.pi / 5) / 5.0),
        (FamilyId("short_72"), "closed", 9.0 * cot(math.pi / 5) / 7.0),
        (FamilyId("rect_74"), "closed", 24.0 / 7.0),
    ],
)
def test_kusner_quotients(family, presentation, expected):
    assert abs(kusner_quotient(family, presentation) - expected) <= 1e-12 * expected


def test_quotient_headline_decimals():
    # the rounded values the families are usually quoted at
    assert abs(kusner_quotient(FamilyId("odd_wrap", 2), "truncated") - 1.83) < 0.01
    assert abs(kusner_quotient(FamilyId("odd_wrap", 2)) - 2.29) < 0.01
    assert abs(kusner_quotient(FamilyId("star_polygon", 7)) - 2.08) < 0.01
    assert abs(kusner_quotient(FamilyId("pinwheel", 2)) - 3.08) < 0.01
    assert abs(kusner_quotient(FamilyId("even_wrap_plus2", 3)) - 1.21) < 0.01
    assert abs(kusner_quotient(FamilyId("even_wrap_plus4", 3)) - 1.54) < 0.01


def test_limit_constants():
    assert limit_constant("odd_wrap") == pytest.approx(4.0 / math.pi, rel=1e-15)
    assert limit_constant(FamilyId("pinwheel", 2)) == pytest.approx(4.0 / math.pi)
    assert limit_constant("even_wrap_plus2") == pytest.approx(2.0 / math.pi)
    assert limit_constant("even_wrap_plus4") == pytest.approx(2.0 / math.pi)
    assert math.isinf(limit_constant("star_polygon"))
    for tag in ("short_52", "short_72", "rect_74"):
        with pytest.raises(NotApplicableError):
            limit_constant(tag)
    with pytest.raises(ParameterError):
        limit_constant("heptagon")


def test_truncated_odd_quotient_strictly_decreasing():
    values = [kusner_quotient(FamilyId("odd_wrap", q), "truncated") for q in range(2, 51)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_truncated_odd_quotient_approaches_limit():
    q = 200
    quotient = kusner_quotient(FamilyId("odd_wrap", q), "truncated")
    assert abs(quotient - 4.0 / math.pi) <= 0.01 * (4.0 / math.pi)


def test_even_wrap_quotients_approach_limit():
    # excess over 2/pi is (v/2 + 1)/(q - 1) to leading order, so the
    # two-panel surplus lands inside 1% first at q = 201 and the
    # four-panel surplus first at q = 301
    limit = 2.0 / math.pi
    plus2 = kusner_quotient(FamilyId("even_wrap_plus2", 201))
    assert abs(plus2 - limit) <= 0.01 * limit
    plus4_201 = kusner_quotient(FamilyId("even_wrap_plus4", 201))
    assert 0.01 * limit < abs(plus4_201 - limit) <= 0.015 * limit
    plus4 = kusner_quotient(FamilyId("even_wrap_plus4", 301))
    assert abs(plus4 - limit) <= 0.01 * limit


def test_even_wrap_quotients_decrease_toward_limit():
    limit = 2.0 / math.pi
    for tag in ("even_wrap_plus2", "even_wrap_plus4"):
        values = [kusner_quotient(FamilyId(tag, q)) for q in range(3, 102, 2)]
        assert all(a > b for a, b in zip(values, values[1:]))
        assert all(v > limit for v in values)


def test_star_quotient_unbounded():
    assert kusner_quotient(FamilyId("star_polygon", 1001)) > 100.0


def test_bounds_table_rows():
    rows = bounds_table()
    by_name = {row.constant: row for row in rows}
    assert [row.constant for row in rows] == [
        "c1_closed",
        "c1_truncated",
        "c2_closed",
        "c2_truncated",
    ]
    assert by_name["c1_closed"].value == pytest.approx(2.0 / math.pi, rel=1e-15)
    assert by_name["c1_truncated"].value == pytest.approx(4.0 / math.pi, rel=1e-15)
    assert by_name["c2_closed"].value == pytest.approx(
        (5.0 / 3.0) * cot(math.pi / 5), rel=1e-15
    )
    assert by_name["c2_truncated"].value == pytest.approx(
        (3.0 + math.sqrt(2.0)) / 2.0, rel=1e-15
    )
    for row in rows:
        assert row.witness
        assert row.note
        assert row.symbolic


def test_c2_truncated_matches_external_figure_eight():
    quotient = FIGURE_EIGHT_RATIO / FIGURE_EIGHT_CROSSINGS
    row = bounds_table()[3]
    assert row.value == pytest.approx(quotient, rel=1e-15)
    assert "external" in row.witness


def test_c1_rows_marked_unattained():
    for row in bounds_table()[:2]:
        assert "not attained" in row.note


def test_report_ordering_and_coverage():
    report = ratio_report(FamilyId("odd_wrap", 2))
    assert report.params is not None and (report.params.p, report.params.q) == (3, 2)

    reports = ratio_reports(5, 11)
    keys = [(r.family.tag, r.family.parameter, r.presentation) for r in reports]
    expected = []
    for q in range(2, 6):
        expected.append(("odd_wrap", q, "closed"))
        expected.append(("odd_wrap", q, "truncated"))
    for p in (7, 9, 11):
        expected.append(("star_polygon", p, "closed"))
    for q in range(2, 6):
        expected.append(("pinwheel", q, "closed"))
    for tag in ("even_wrap_plus2", "even_wrap_plus4"):
        for q in (3, 5):
            expected.append((tag, q, "closed"))
    expected += [
        ("short_52", None, "closed"),
        ("short_72", None, "closed"),
        ("rect_74", None, "closed"),
    ]
    assert keys == expected


def test_report_quotients_consistent():
    for report in ratio_reports(8, 15):
        assert report.quotient == report.closed_form / report.crossings


def test_reports_reject_bad_caps():
    with pytest.raises(ParameterError):
        ratio_reports(1, 25)
    with pytest.raises(ParameterError):
        ratio_reports(12, 6)
    with pytest.raises(ParameterError):
        ratio_reports(12.0, 25)


def test_csv_table_round_trips_full_precision():
    text = quotient_table(4, 9, "csv")
    lines = text.splitlines()
    assert lines[0] == "family,p,q,presentation,ratio,crossing,quotient"
    parsed = list(csv.DictReader(io.StringIO(text)))
    reports = ratio_reports(4, 9)
    assert len(parsed) == len(reports)
    for row, report in zip(parsed, reports):
        assert row["family"] == report.family.tag
        assert float(row["ratio"]) == report.closed_form
        assert float(row["quotient"]) == report.quotient
        assert int(row["crossing"]) == report.crossings
        if report.params is None:
            assert row["p"] == "" and row["q"] == ""
        else:
            assert int(row["p"]) == report.params.p
            assert int(row["q"]) == report.params.q


def test_markdown_table_shape():
    text = quotient_table(3, 7, "markdown")
    lines = text.splitlines()
    assert lines[0].startswith("| family")
    assert set(lines[1].replace("|", "").split()) == {"-" * len(w) for w in []} or all(
        ch in "-| " for ch in lines[1]
    )
    assert len(lines) == 2 + len(ratio_reports(3, 7))
    # every row keeps the same column count
    assert {line.count("|") for line in lines} == {8}


def test_table_rejects_unknown_format():
    with pytest.raises(ParameterError):
        quotient_table(12, 25, "html")


def test_tables_are_deterministic():
    assert quotient_table(6, 13, "csv") == quotient_table(6, 13, "csv")
    assert quotient_table(6, 13, "markdown") == quotient_table(6, 13, "markdown")


def test_significant_digit_formatting():
    assert significant(14.535649776006357) == "14.5356"
    assert significant(2.0 / math.pi) == "0.63662"
    assert significant(24.0) == "24"
