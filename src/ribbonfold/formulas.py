"""Closed-form ratios, crossing numbers, quotients, and bound tables.

All values here are arithmetic on the family formulas; nothing in this
module builds geometry.  Every ratio is reported as value plus an exact
symbolic form, since the interesting constants are cotangents of
rational angles rather than pretty decimals.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from typing import List, Optional, Union

from .constructions import _FAMILIES, FAMILY_TAGS, FamilyId, TorusKnotParams, _spec, knot_type
from .errors import InvalidInputError, NotApplicableError, ParameterError, _Record

__all__ = [
    "BoundsRow",
    "FIGURE_EIGHT_CROSSINGS",
    "FIGURE_EIGHT_RATIO",
    "RECT_74_CROSSINGS",
    "RatioFormula",
    "RatioReport",
    "bounds_table",
    "closed_form_ratio",
    "crossing_number",
    "family_crossing_number",
    "kusner_quotient",
    "limit_constant",
    "quotient_table",
    "ratio_report",
    "ratio_reports",
    "significant",
]

# knot-table crossing number of 7_4; the rectangle fold realises it
RECT_74_CROSSINGS = 7

# reference figure-eight fold: ratio 6 + 2*sqrt(2) over 4 crossings.
# External comparison value only; no builder here produces it.
FIGURE_EIGHT_RATIO = 6.0 + 2.0 * math.sqrt(2.0)
FIGURE_EIGHT_CROSSINGS = 4


def significant(x: float, digits: int = 6) -> str:
    """Format a number to the given count of significant digits."""
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        raise InvalidInputError("expected a number, got %s" % type(x).__name__)
    # %g converts an int to a float, which one past the float range overflows
    if isinstance(x, int) and abs(x) > sys.float_info.max:
        raise InvalidInputError("number must lie within the float range")
    # %.*g reads the precision as a C int, and a bool would count as 0 or 1
    if isinstance(digits, bool) or not isinstance(digits, int) or not 0 < digits <= 99:
        raise InvalidInputError("digits must be an int from 1 to 99")
    return "%.*g" % (digits, x)


class RatioFormula(_Record):
    """A ratio coefficient * cot(pi / cot_denominator), or an integer
    coefficient alone when ``cot_denominator`` is None.

    ``limit`` marks formulas the construction only approaches as its
    epsilon parameter goes to zero, rather than attains exactly.
    """

    _fields = __match_args__ = ("coefficient", "cot_denominator", "limit")
    coefficient: int
    cot_denominator: Optional[int]
    limit: bool

    def __init__(self, coefficient: int, cot_denominator: Optional[int] = None,
                 limit: bool = False):
        self.__dict__.update(coefficient=coefficient, cot_denominator=cot_denominator, limit=limit)

    @property
    def value(self) -> float:
        d = self.cot_denominator
        if d is None:
            return float(self.coefficient)
        return self.coefficient / math.tan(1 / d * math.pi)

    def symbolic(self) -> str:
        if self.cot_denominator is None:
            return str(self.coefficient)
        return "%d*cot(pi/%d)" % (self.coefficient, self.cot_denominator)


def closed_form_ratio(family: FamilyId, presentation: str = "closed") -> RatioFormula:
    """Exact length-to-width ratio formula of a family.

    For the two short variants the returned formula is the epsilon -> 0
    limit, flagged as such.  Only odd_wrap accepts a truncated
    presentation.
    """
    spec = _spec(family, presentation)
    coefficient, denominator = spec.ratio(family.parameter)
    if presentation == "truncated":
        coefficient -= 1  # the open strip drops the final panel
    return RatioFormula(coefficient, denominator, spec.limit)


def crossing_number(p: int, q: int) -> int:
    """Crossing number of the (p, q) torus knot: min{p(q-1), q(p-1)}."""
    if isinstance(p, bool) or isinstance(q, bool):
        raise InvalidInputError("crossing number needs integer p and q")
    if not isinstance(p, int) or not isinstance(q, int):
        raise InvalidInputError("crossing number needs integer p and q")
    if p < 2 or q < 2:
        raise InvalidInputError("torus parameters must both be at least 2")
    if math.gcd(p, q) != 1:
        raise InvalidInputError("(%d, %d) describes a link, not a knot" % (p, q))
    return min(p * (q - 1), q * (p - 1))


def family_crossing_number(family: FamilyId) -> int:
    """Crossing number of the knot a family folds."""
    params = knot_type(family)
    if params is None:
        return RECT_74_CROSSINGS
    return crossing_number(params.p, params.q)


def kusner_quotient(family: FamilyId, presentation: str = "closed") -> float:
    """Ratio divided by crossing number, the quantity the bounds compare."""
    formula = closed_form_ratio(family, presentation)
    return formula.value / family_crossing_number(family)


def _limit_over_pi(family: Union[FamilyId, str]) -> Optional[Fraction]:
    """pi times the quotient limit of a parametric family, or None when
    the quotient grows without bound.

    The quotient c*cot(pi/d)/C of a member with panel count c, cot-angle
    denominator d and crossing number C tends to lim c*d/C over pi as d
    grows.  c*d and C are polynomials of degree at most 2 in the
    parameter, so that limit is the ratio of their second differences
    over three members a step apart; a zero difference of C means the
    limit is infinite.
    """
    tag = family.tag if isinstance(family, FamilyId) else family
    if tag not in FAMILY_TAGS:
        raise ParameterError("unknown family tag %r" % (tag,))
    spec = _FAMILIES[tag]
    if spec.flag is None:
        raise NotApplicableError("%s has no parameter limit" % tag)
    step = 2 if spec.odd else 1
    members = range(spec.low, spec.low + 3 * step, step)
    products = [math.prod(spec.ratio(n)) for n in members]
    crossings = [crossing_number(*spec.knot(n)) for n in members]
    top, bottom = (x0 - 2 * x1 + x2 for x0, x1, x2 in (products, crossings))
    return Fraction(top, bottom) if bottom else None


def limit_constant(family: Union[FamilyId, str]) -> float:
    """Limit of a parametric family's quotient as its parameter grows.

    Returns math.inf for the star polygons, whose quotient is unbounded.
    The three fixed constructions have no parameter to take a limit in,
    so they raise NotApplicableError.
    """
    coefficient = _limit_over_pi(family)
    return math.inf if coefficient is None else float(coefficient) / math.pi


class BoundsRow(_Record):
    """One bound on ratio / crossing, with the witness that pins it."""

    _fields = __match_args__ = ("constant", "value", "symbolic", "witness", "note")
    constant: str
    value: float
    symbolic: str
    witness: str
    note: str

    def __init__(self, constant: str, value: float, symbolic: str, witness: str, note: str):
        self.__dict__.update(constant=constant, value=value, symbolic=symbolic, witness=witness,
                             note=note)


def bounds_table() -> List[BoundsRow]:
    """The four quotient bounds these constructions establish.

    The c1 rows are upper bounds approached by family limits, never
    attained by a finite member.  The c2 rows are witness quotients.  A
    construction bounds Ribbonlength only from above, so a row bounds c2
    from below only if its knot's Ribbonlength equals the witness ratio:
    for the trefoil, the paper's conjectured 5*cot(pi/5); for the
    figure-eight, the external value 6+2*sqrt(2).
    """
    c1_note = "upper bound for c1; approached in the limit, not attained"
    closed, truncated = _limit_over_pi("even_wrap_plus2"), _limit_over_pi("odd_wrap")
    trefoil = FamilyId("odd_wrap", 2)
    witness, crossings = closed_form_ratio(trefoil), family_crossing_number(trefoil)
    return [
        BoundsRow(
            "c1_closed",
            float(closed) / math.pi,
            "%s/pi" % closed,
            "even_wrap quotients as q grows",
            c1_note,
        ),
        BoundsRow(
            "c1_truncated",
            float(truncated) / math.pi,
            "%s/pi" % truncated,
            "truncated odd_wrap quotients as q grows",
            c1_note,
        ),
        BoundsRow(
            "c2_closed",
            witness.value / crossings,
            "(%s)*cot(pi/%d)" % (Fraction(witness.coefficient, crossings),
                                 witness.cot_denominator),
            "odd_wrap q=2 closed, the five-panel trefoil",
            "witness quotient; bounds c2 from below only if the trefoil's"
            " Ribbonlength is the conjectured 5*cot(pi/5)",
        ),
        BoundsRow(
            "c2_truncated",
            FIGURE_EIGHT_RATIO / FIGURE_EIGHT_CROSSINGS,
            "(3+sqrt(2))/2",
            "figure-eight fold at ratio 6+2*sqrt(2), an external"
            " reference value no builder here produces",
            "witness quotient; bounds c2 from below only if the figure-eight's"
            " Ribbonlength is the external value 6+2*sqrt(2)",
        ),
    ]


class RatioReport(_Record):
    """One table row: a family member with its ratio and quotient."""

    _fields = __match_args__ = ("family", "params", "presentation", "closed_form",
                                "symbolic", "crossings", "quotient", "limit")
    family: FamilyId
    params: Optional[TorusKnotParams]
    presentation: str
    closed_form: float
    symbolic: str
    crossings: int
    quotient: float
    limit: bool

    def __init__(
        self,
        family: FamilyId,
        params: Optional[TorusKnotParams],
        presentation: str,
        closed_form: float,
        symbolic: str,
        crossings: int,
        quotient: float,
        limit: bool = False,
    ):
        self.__dict__.update(family=family, params=params, presentation=presentation,
                             closed_form=closed_form, symbolic=symbolic, crossings=crossings,
                             quotient=quotient, limit=limit)


def ratio_report(family: FamilyId, presentation: str = "closed") -> RatioReport:
    """Assemble the report row for one family member."""
    formula = closed_form_ratio(family, presentation)
    crossings = family_crossing_number(family)
    return RatioReport(
        family=family,
        params=knot_type(family),
        presentation=presentation,
        closed_form=formula.value,
        symbolic=formula.symbolic(),
        crossings=crossings,
        quotient=formula.value / crossings,
        limit=formula.limit,
    )


def ratio_reports(q_max: int = 12, p_max: int = 25) -> List[RatioReport]:
    """All family rows up to the given parameter caps, in stable order."""
    if isinstance(q_max, bool) or not isinstance(q_max, int) or q_max < 2:
        raise ParameterError("q_max must be an integer >= 2")
    if isinstance(p_max, bool) or not isinstance(p_max, int) or p_max < 7:
        raise ParameterError("p_max must be an integer >= 7")
    caps = {"q": q_max, "p": p_max}
    reports = []
    for tag, spec in _FAMILIES.items():
        if spec.flag is None:
            members = [None]
        else:
            members = range(spec.low, caps[spec.flag] + 1, 2 if spec.odd else 1)
        for n in members:
            for presentation in spec.presentations:
                reports.append(ratio_report(FamilyId(tag, n), presentation))
    return reports


def _render(header: List[str], rows: List[List[str]], format: str) -> str:
    # CSV lines as given, or a markdown table with columns padded to width
    if format not in ("csv", "markdown"):
        raise ParameterError("format must be 'csv' or 'markdown'")
    if format == "csv":
        return "\n".join(",".join(row) for row in [header] + rows) + "\n"
    cells = [header] + rows
    widths = [max(len(row[i]) for row in cells) for i in range(len(header))]
    lines = ["| " + " | ".join(c.ljust(w) for c, w in zip(row, widths)) + " |"
             for row in cells]
    lines.insert(1, "| " + " | ".join("-" * w for w in widths) + " |")
    return "\n".join(lines) + "\n"


def quotient_table(q_max: int = 12, p_max: int = 25, format: str = "csv") -> str:
    """Render the full quotient table as CSV or an aligned markdown table.

    CSV keeps full float precision; markdown rounds to 6 significant
    digits for reading.
    """
    num = repr if format == "csv" else significant
    rows = []
    for report in ratio_reports(q_max, p_max):
        p = "" if report.params is None else str(report.params.p)
        q = "" if report.params is None else str(report.params.q)
        rows.append([report.family.tag, p, q, report.presentation,
                     num(report.closed_form), str(report.crossings),
                     num(report.quotient)])
    header = ["family", "p", "q", "presentation", "ratio", "crossing", "quotient"]
    return _render(header, rows, format)


def _bounds_text(format: str = "csv") -> str:
    """Render the bounds table as CSV, which quotes the free text, or markdown."""
    if format == "csv":
        num, text = repr, lambda words: '"%s"' % words
    else:
        num, text = significant, str
    rows = [[row.constant, num(row.value), row.symbolic, text(row.witness), text(row.note)]
            for row in bounds_table()]
    return _render(["constant", "value", "symbolic", "witness", "note"], rows, format)
