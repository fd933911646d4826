"""Family builders for flat-folded torus knot ribbons.

Every builder emits its creases directly, from exact data.  The five
star families (odd wraps, star polygons, pinwheels and the two even
wraps) follow a {n/step} star: crease j sits j chords along the strip
at step*pi/n or its supplement, so their angles are exact by
construction.  The sixteen-panel rectangle walks the same 2 x 1 circuit
four times with integer sides and quarter-turn creases, and lets the
stacking order do all the work.  The two short variants pair creases a
small distance epsilon apart; their creases are read off their
centerline polyline, at angles that are no rational multiple of pi.

The private ``_FAMILIES`` table holds one row per family; ``FamilyId``,
``knot_type``, ``build``, the formulas and the CLI all read it.  ``build``
is the one way in; the builders behind it trust ``FamilyId`` and ``_spec``.
"""

from __future__ import annotations

import math
from itertools import accumulate
from typing import Callable, List, NamedTuple, Optional, Tuple, Union

from .errors import InvalidInputError, ParameterError, _Record
from .fold_core import (
    CreaseSpec,
    CutSpec,
    ExactAngle,
    FoldProgram,
    Point,
    WeaveRule,
    _limit_denominator,
    _pi_turns,
)

__all__ = [
    "FAMILY_TAGS",
    "FamilyId",
    "TorusKnotParams",
    "build",
    "knot_type",
]


class TorusKnotParams(_Record):
    """A (p, q) torus knot; convention p > q >= 2, coprime."""

    _fields = __match_args__ = ("p", "q")
    p: int
    q: int

    def __init__(self, p: int, q: int):
        if isinstance(p, bool) or isinstance(q, bool):
            raise ParameterError("torus knot parameters must be integers")
        if not isinstance(p, int) or not isinstance(q, int):
            raise ParameterError("torus knot parameters must be integers")
        if q < 2 or p <= q:
            raise ParameterError("torus knot parameters need p > q >= 2")
        if math.gcd(p, q) != 1:
            raise ParameterError("(%d, %d) describes a link, not a knot" % (p, q))
        self.__dict__.update(p=p, q=q)


class _Family(NamedTuple):
    """One row of the family table: everything the package knows of a family."""

    cli_name: str
    variant: Optional[int]  # --variant value of the two even wraps
    flag: Optional[str]  # parameter flag, "q" or "p"; None for a fixed fold
    low: int  # least accepted parameter
    odd: bool  # whether the parameter must be odd
    presentations: Tuple[str, ...]
    # torus (p, q) as a function of the parameter, or Alexander
    # coefficients for a knot that is not a torus knot
    knot: Union[Callable[[int], Tuple[int, int]], Tuple[int, ...]]
    # (coefficient, cot-angle denominator) of the closed ratio, where the
    # ratio is coefficient * cot(pi / denominator); denominator None means
    # the ratio is the bare coefficient.  For a family with a parameter the
    # coefficient is the closed panel count, one per chord of the star;
    # formulas.limit_constant derives the quotient limit from this and knot
    ratio: Callable[[Optional[int]], Tuple[int, Optional[int]]]
    limit: bool  # the ratio is only approached as epsilon -> 0
    # (parameter, presentation, epsilon) -> program; the lambdas look the
    # builders up as module globals at call time
    build: Callable[[Optional[int], str, float], FoldProgram]


_FAMILIES = {
    "odd_wrap": _Family(
        "odd-wrap", None, "q", 2, False, ("closed", "truncated"),
        lambda q: (q + 1, q), lambda q: (2 * q + 1, 2 * q + 1), False,
        lambda q, presentation, _: _odd_wrap(q, presentation)),
    "star_polygon": _Family(
        "star", None, "p", 7, True, ("closed",),
        lambda p: (p, 2), lambda p: (p, p), False,
        lambda p, *_: _star_polygon(p)),
    "pinwheel": _Family(
        "pinwheel", None, "q", 2, False, ("closed",),
        lambda q: (2 * q + 1, q), lambda q: (2 * q + 1, 4 * q + 2), False,
        lambda q, *_: _pinwheel(q)),
    "even_wrap_plus2": _Family(
        "even-wrap", 2, "q", 3, True, ("closed",),
        lambda q: (2 * q + 2, q), lambda q: (2 * q + 2, 2 * q + 2), False,
        lambda q, *_: _even_wrap(q, 2)),
    "even_wrap_plus4": _Family(
        "even-wrap", 4, "q", 3, True, ("closed",),
        lambda q: (2 * q + 4, q), lambda q: (2 * q + 4, 2 * q + 4), False,
        lambda q, *_: _even_wrap(q, 4)),
    "short_52": _Family(
        "short-52", None, None, 0, False, ("closed",),
        lambda _: (5, 2), lambda _: (7, 5), True,
        lambda _, __, epsilon: _short("short_52", epsilon)),
    "short_72": _Family(
        "short-72", None, None, 0, False, ("closed",),
        lambda _: (7, 2), lambda _: (9, 5), True,
        lambda _, __, epsilon: _short("short_72", epsilon)),
    "rect_74": _Family(
        "rect74", None, None, 0, False, ("closed",),
        (4, -7, 4), lambda _: (24, None), False,
        lambda *_: _74()),
}

FAMILY_TAGS = tuple(_FAMILIES)

# largest closed panel count a parameter may ask for; a program that size
# builds in about 0.35 s and 30 MB, far past every size that lays out
_MAX_PANELS = 10**5


class FamilyId(_Record):
    """Names one construction family plus its q or p where one applies."""

    _fields = __match_args__ = ("tag", "parameter")
    tag: str
    parameter: Optional[int]

    def __init__(self, tag: str, parameter: Optional[int] = None):
        spec = _FAMILIES.get(tag) if isinstance(tag, str) else None
        if spec is None:
            raise ParameterError("unknown family tag %r" % (tag,))
        n = parameter
        if spec.flag is None:
            if n is not None:
                raise ParameterError("%s takes no parameter" % tag)
        elif isinstance(n, bool) or not isinstance(n, int):
            raise ParameterError("%s needs an integer parameter" % tag)
        elif n < spec.low or (spec.odd and n % 2 == 0):
            raise ParameterError("%s needs %s%s >= %d" % (
                tag, "odd " if spec.odd else "", spec.flag, spec.low))
        elif spec.ratio(n)[0] > _MAX_PANELS:
            raise ParameterError("%s with this %s would have more than %d panels" % (
                tag, spec.flag, _MAX_PANELS))
        self.__dict__.update(tag=tag, parameter=parameter)


def _spec(family: FamilyId, presentation: str = "closed") -> _Family:
    """Table row of a family, once its presentation is known to apply."""
    if not isinstance(family, FamilyId):
        raise InvalidInputError("expected a FamilyId, got %r" % (family,))
    spec = _FAMILIES[family.tag]
    if presentation not in spec.presentations:
        raise ParameterError("%s has no %r presentation" % (family.tag, presentation))
    return spec


def knot_type(family: FamilyId) -> Optional[TorusKnotParams]:
    """Torus knot type a family folds, or None for the 7_4 rectangle."""
    knot = _spec(family).knot
    return None if isinstance(knot, tuple) else TorusKnotParams(*knot(family.parameter))


def _closed_program(width, lines, heights, label, weave=None) -> FoldProgram:
    # lines holds (position, angle) of creases j = 1, 2, ...; crease j ends
    # panel j - 1 and climbs to panel j, which wraps to panel 0 at the seam
    n = len(heights)
    creases = tuple(CreaseSpec(position, angle, heights[j % n] - heights[j - 1])
                    for j, (position, angle) in enumerate(lines, 1))
    return FoldProgram(width, creases, "closed", label, weave=weave)


def _star_program(n, step, chord, width, heights, label, weave=None) -> FoldProgram:
    """Closed program of a strip whose centerline follows the {n/step} star.

    Each vertex turns by 2*step*pi/n and its crease bisects the turn, seen
    from alternate faces: crease j sits j chords along the strip, at
    step/n*pi for odd j and (n - step)/n*pi for even j.
    """
    angles = (ExactAngle(step, n), ExactAngle(n - step, n))
    lines = [(j * chord, angles[(j - 1) % 2]) for j in range(1, n + 1)]
    return _closed_program(width, lines, heights, label, weave)


def _odd_wrap(q: int, presentation: str) -> FoldProgram:
    """Wrap of the regular (2q+1)-gon of unit side, a (q+1, q) torus knot.

    The centerline visits every polygon vertex in steps of q, so each
    crease is a unit chord of the circumscribed circle.  The closed
    presentation keeps all 2q+1 panels; the truncated one drops the
    final panel and cuts both ends parallel to the removed creases.
    """
    n = 2 * q + 1
    width = math.cos(math.pi / (2 * n))
    chord = width / math.tan(math.pi / n)
    heights = [((q + 1) * k) % n for k in range(n)]
    label = "odd_wrap q=%d %s" % (q, presentation)
    program = _star_program(n, q, chord, width, heights, label)
    if presentation == "closed":
        return program
    # the dropped panel's creases become the cuts; the seam one shows
    # its supplement to the first panel
    cut = ExactAngle(q + 1, n)
    return FoldProgram(width, program.creases[:n - 2], "truncated", label,
                       start_cut=CutSpec(0.0, cut), end_cut=CutSpec((n - 1) * chord, cut))


def _star_polygon(p: int) -> FoldProgram:
    """Closed ring of p congruent trapezoids around a {p/2} star, a (p, 2) knot.

    Three trapezoid sides have unit length and the base is 1 + 2cos(2pi/p);
    the panel inner edges leave a smaller regular p-gon uncovered in the
    middle.  The torus weave sets the crossings, as for the pinwheels and
    even wraps, so every crossing is positive; like any (p, 2) standard
    diagram, it still alternates over and under along the strip.
    """
    width = math.sin(2.0 * math.pi / p)
    chord = 1.0 + math.cos(2.0 * math.pi / p)
    return _star_program(p, 2, chord, width, range(p), "star_polygon p=%d" % p,
                         WeaveRule("torus"))


def _pinwheel(q: int) -> FoldProgram:
    """Closed pinwheel of 2q+1 panels folding a (2q+1, q) torus knot.

    Same visiting order as the odd wrap but with a unit-width strip and
    the longer chord 1/tan(pi/(2(2q+1))), which rotates each panel past
    its neighbours instead of stacking them over a polygon.
    """
    n = 2 * q + 1
    chord = 1.0 / math.tan(math.pi / (2 * n))
    return _star_program(n, q, chord, 1.0, range(n), "pinwheel q=%d" % q, WeaveRule("torus"))


def _even_wrap(q: int, variant: int) -> FoldProgram:
    """Wrap of the regular n-gon with n = 2q + variant, an (n, q) torus knot.

    Only odd q keeps n and q coprime.  variant selects between the two
    even polygon sizes that admit this wrap, n = 2q+2 and n = 2q+4.
    """
    n = 2 * q + variant
    width = math.sin(q * math.pi / n)
    chord = width / math.tan(math.pi / n)
    return _star_program(n, q, chord, width, range(n), "even_wrap q=%d n=%d" % (q, n),
                         WeaveRule("torus"))


# Strip-and-collar centerline shared by the two short variants: a stack
# of near-vertical joins whose creases sit epsilon/2 from the turning
# points, closed off by a three-segment collar that threads the return
# path through the stack.  The raw constants fix the shape only; _short
# scales the epsilon -> 0 centerline to the family's exact closed-form
# length, so the limit ratio is exact by design.
_SHORT_RAW = {
    "D": 1.14,  # join length between paired creases
    "a": 0.25,
    "b": 0.35,
    "cx0": -0.80,
    "cx1": 1.20,
    "cy1": 0.55,
    "cx2": -1.50,
}
# (drifts, heights) of each short: the sideways lean per unit epsilon of
# each near-vertical join vertex, kept unscaled so the first-order ratio
# defect stays O(epsilon), and the stacking order certified by the knot
# checks, stable across the whole accepted epsilon range
_SHORTS = {
    "short_52": ((-1.2, 1.2, 0.0, -0.6), (0, 3, 1, 4, 6, 2, 5)),
    "short_72": ((-1.5, 1.5, 0.0, -0.75, 0.75, -0.3), (8, 4, 0, 3, 7, 5, 1, 6, 2)),
}
# least accepted epsilon: down to about 1e-11 the ratio defect stays
# within 1% of its first-order value, while near 1e-15 it is float noise
# (0 or negative), so the limit check 0 < defect <= 10 epsilon needs margin
_SHORT_EPSILON_MIN = 1e-9


def _collar(raw) -> Tuple[Tuple[float, float], ...]:
    return (
        (raw["cx0"], raw["D"] + raw["a"]),
        (raw["cx1"], raw["cy1"]),
        (raw["cx2"], -raw["b"]),
    )


def _limit_length(raw, joins: int) -> float:
    # centerline length at epsilon = 0, when the joins collapse onto the
    # segment from (0, 0) to (0, D)
    total = joins * raw["D"]
    prev = (0.0, 0.0)
    for pt in _collar(raw):
        total += math.hypot(pt[0] - prev[0], pt[1] - prev[1])
        prev = pt
    total += math.hypot(prev[0], raw["D"] - prev[1])
    return total


def _short_centerline(epsilon: float, scale: float, drifts) -> List[Point]:
    # closed unit-width centerline of a short variant, one point per vertex
    c = {k: v * scale for k, v in _SHORT_RAW.items()}
    # join pair k runs from height D + y_k down to y_k, its offsets y_k
    # spread evenly over [-epsilon/2, epsilon/2]
    half = 0.5 * epsilon
    last = len(drifts) // 2 - 1
    offsets = [half * (2 * k / last - 1) for k in range(last + 1)]
    ys = [y for offset in offsets for y in (c["D"] + offset, offset)]
    pts = [Point(drift * epsilon, y) for drift, y in zip(drifts, ys)]
    return pts + [Point(x, y) for x, y in _collar(c)]


def _short(tag: str, epsilon: float) -> FoldProgram:
    """Fold of a short variant, with creases paired epsilon apart.

    short_52 folds the (5, 2) knot in seven panels: two of the five
    effective fold lines are doubled into parallel pairs separated by
    epsilon, which shortens the strip below the five-panel wrap.  short_72
    folds the (7, 2) knot in nine, with a third doubled fold line in the
    same stack.  The centerline is scaled so that the ratio tends to the
    family's closed form, 7/tan(pi/5) and 9/tan(pi/5), as epsilon goes to
    zero.  Epsilon must lie in [1e-9, 0.1): below 1e-9 the ratio defect
    nears float noise and the limit check could no longer tell it from zero.
    """
    if not isinstance(epsilon, (int, float)) or isinstance(epsilon, bool):
        raise ParameterError("epsilon must be a number")
    # unit width, so the bounds are in width units; compared before the
    # float conversion, which overflows on a huge int
    if not _SHORT_EPSILON_MIN <= epsilon < 0.1:
        raise ParameterError("epsilon must lie in [1e-9, 0.1)")
    epsilon = float(epsilon)
    drifts, heights = _SHORTS[tag]
    coefficient, d = _FAMILIES[tag].ratio(None)
    joins = len(drifts) - 1
    scale = coefficient * (1.0 / math.tan(math.pi / d)) / _limit_length(_SHORT_RAW, joins)
    pts = _short_centerline(epsilon, scale, drifts)
    n = len(pts)
    legs = [(b.x - a.x, b.y - a.y) for a, b in zip(pts, pts[1:] + pts[:1])]
    lines = []
    for k in range(1, n + 1):
        # crease k bisects the signed turn at vertex k, seen from the face
        # panel k - 1 shows; its angle is no rational multiple of pi, so it
        # takes the nearest fraction, with no preference for simple ones
        (ux, uy), (vx, vy) = legs[k - 1], legs[k % n]
        half_turn = 0.5 * math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
        turns = _pi_turns((half_turn if k % 2 else -half_turn) % math.pi)
        position = math.fsum(math.hypot(*leg) for leg in legs[:k])
        lines.append((position, ExactAngle(*_limit_denominator(*turns, 10**12))))
    return _closed_program(1.0, lines, heights, "%s eps=%g" % (tag, epsilon))


# Four passes around a 2 x 1 rectangle; the stacking order alone decides
# the weave.  Certified against the 7_4 Alexander polynomial.
_RECT_74_HEIGHTS = (5, 14, 0, 11, 1, 13, 7, 8, 6, 3, 10, 2, 9, 12, 15, 4)


def _74() -> FoldProgram:
    """Sixteen-panel rectangle circuit folding the 7_4 knot at ratio 24.

    The unit-width centerline walks a 2 x 1 rectangle four times, so the
    folded ribbon exactly tiles a 3 x 2 box and the length-to-width
    ratio is the integer 24.  Every corner turns by pi/2, so the creases
    alternate between pi/4 and 3pi/4.
    """
    angles = [ExactAngle(1, 4), ExactAngle(3, 4)] * 8
    lines = zip(map(float, accumulate((2, 1) * 8)), angles)
    return _closed_program(1.0, lines, _RECT_74_HEIGHTS, "rect_74")


def build(
    family: FamilyId,
    *,
    presentation: str = "closed",
    epsilon: float = 1e-3,
) -> FoldProgram:
    """Build the program a FamilyId names.

    A presentation the family lacks raises ParameterError; only odd_wrap
    has "truncated".  Only the two short variants read epsilon, and only
    they check it (ParameterError); every other family ignores it.
    """
    spec = _spec(family, presentation)
    return spec.build(family.parameter, presentation, epsilon)
