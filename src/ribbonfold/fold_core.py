"""Planar fold kernel for flat ribbon strips.

A ribbon of width w is modelled in strip coordinates as the region
between the parallel edges y = -w/2 and y = +w/2, with the centerline
on y = 0.  A crease is a straight line through a centerline position at
an exact rational multiple of pi to the strip direction.  Folding
reflects everything past a crease across the crease line; applying the
creases left to right places every panel in the plane as a flat quad.

A fold program is the complete recipe: width, an ordered crease list,
whether the strip closes into a loop or is cut open at both ends, and
the weave that may set its crossings.  ``layout`` realizes a program as
placed panels.

``layout_from_centerline`` places panels straight from a centerline
polyline and ``unfold`` recovers a program from placed panels.  No
builder goes through them; they are independent oracles that check a
program against the geometry it should fold to.
"""

from __future__ import annotations

import json
import math
import sys
from fractions import Fraction
from itertools import starmap
from typing import Optional, Sequence, Tuple, Union

from .errors import (
    ClosureError,
    InconsistencyError,
    InvalidInputError,
    MalformedProgramError,
    _expect_type,
    _Record,
)

CLOSURE_TOLERANCE = 1e-9

# noise left in an angle measured from placed panels: at most 2.2e-12 rad
# over the star families at q <= 60 and p <= 301, and at star p = 1001
_UNFOLD_ANGLE_TOLERANCE = 1e-11

WEAVE_MODES = ("torus",)

# a reduced angle's integers then have at most 601 digits; no setting of
# CPython's int-string limit applies below 640, so every angle's JSON reads back
_MAX_ANGLE_DENOMINATOR = 10**600


def _cross(ax: float, ay: float, bx: float, by: float) -> float:
    return ax * by - ay * bx


_PI_NUM, _PI_DEN = math.pi.as_integer_ratio()


def _pi_turns(radians: float) -> Tuple[int, int]:
    """radians / math.pi as a reduced fraction (n, d) with d > 0."""
    n, d = radians.as_integer_ratio()
    n *= _PI_DEN
    d *= _PI_NUM
    g = math.gcd(n, d)
    return n // g, d // g


def _limit_denominator(n: int, d: int, max_den: int) -> Tuple[int, int]:
    """Closest fraction to n/d with denominator at most max_den.

    n/d must be reduced with d > 0; the result is reduced too.  This is
    ``Fraction.limit_denominator`` on integers: the same walk along the
    continued fraction to the last convergent p1/q1 within max_den, the
    same semiconvergent pk/qk beside it, and the same tie rule, which
    keeps p1/q1.
    """
    if d <= max_den:
        return n, d
    p0, q0, p1, q1 = 0, 1, 1, 0
    a, b = n, d
    while True:
        t = a // b
        q2 = q0 + t * q1
        if q2 > max_den:
            break
        p0, q0, p1, q1 = p1, q1, p0 + t * p1, q2
        a, b = b, a - t * b
    k = (max_den - q0) // q1
    pk, qk = p0 + k * p1, q0 + k * q1
    # |p1/q1 - n/d| <= |pk/qk - n/d|, cross-multiplied
    if abs(p1 * d - n * q1) * qk <= abs(pk * d - n * qk) * q1:
        return p1, q1
    return pk, qk


class ExactAngle(_Record):
    """An angle that is an exact rational multiple of pi.

    The stored value is (numerator / denominator) * pi, normalized to
    [0, 2*pi) with a positive denominator and the fraction reduced, so
    equal angles always compare equal structurally.  ``radians`` is its
    float, computed once, and left out of equality, hash and repr.
    """

    __slots__ = ("numerator", "denominator", "radians")
    _fields = __match_args__ = ("numerator", "denominator")
    numerator: int
    denominator: int
    radians: float

    def __init__(self, numerator: int, denominator: int = 1):
        num, den = numerator, denominator
        if (
            not isinstance(num, int)
            or not isinstance(den, int)
            or isinstance(num, bool)
            or isinstance(den, bool)
        ):
            raise InvalidInputError("angle numerator and denominator must be int")
        if den == 0:
            raise InvalidInputError("angle denominator must be nonzero")
        if den < 0:
            num, den = -num, -den
        g = math.gcd(num, den)
        num //= g
        den //= g
        if den > _MAX_ANGLE_DENOMINATOR:
            raise MalformedProgramError("angle denominator must be at most 10**600 once reduced")
        # num % (2 * den) is congruent to num mod den, so stays coprime to it
        num %= 2 * den
        _set_numerator(self, num)
        _set_denominator(self, den)
        # the float of the fraction: int true division rounds correctly
        _set_radians(self, num / den * math.pi)

    @classmethod
    def from_float(cls, radians: float, *, tolerance: float = 1e-9) -> "ExactAngle":
        """Snap a float angle to the nearest simple rational multiple of pi.

        The closest fraction with denominator up to 10**4 is taken when
        it lies within ``tolerance * min(1, (1000 / den)**2)``: fractions
        with denominators near D crowd about D**2 to a unit, so a larger
        denominator must match more closely to count as the angle meant.
        Otherwise the closest fraction with denominator up to 10**12 is
        used, within ``tolerance``, so arbitrary angles still round-trip.
        """
        for name, value in (("angle", radians), ("tolerance", tolerance)):
            if type(value) is not float and (
                isinstance(value, bool) or not isinstance(value, (int, float))
            ):
                raise InvalidInputError(
                    "%s must be a number, got %s" % (name, type(value).__name__))
        # compared exactly, so NaN and an int past the float range fail too
        if not -sys.float_info.max <= radians <= sys.float_info.max:
            raise InvalidInputError("angle must be finite")
        if not 0 <= tolerance <= sys.float_info.max:
            raise InvalidInputError("tolerance must be finite and nonnegative")
        n, d = _pi_turns(radians)
        num, den = _limit_denominator(n, d, 10**4)
        scale = min(1.0, (1000.0 / den) ** 2)
        if abs(num / den * math.pi - radians) <= tolerance * scale:
            return cls(num, den)
        num, den = _limit_denominator(n, d, 10**12)
        if abs(num / den * math.pi - radians) <= tolerance:
            return cls(num, den)
        raise InconsistencyError(
            "no rational multiple of pi within %g of %r" % (tolerance, radians)
        )

    @property
    def fraction(self) -> Fraction:
        return Fraction(self.numerator, self.denominator)

    def supplement(self) -> "ExactAngle":
        """pi minus this angle."""
        return ExactAngle(self.denominator - self.numerator, self.denominator)

    def __repr__(self) -> str:
        return "ExactAngle(%d, %d)" % (self.numerator, self.denominator)


# each slotted record's __init__ stores its fields through these setters
_set_numerator, _set_denominator, _set_radians = ExactAngle._setters.values()


def _real(value, what: str) -> float:
    """A JSON number as a float; an int past the float range reads as inf."""
    if type(value) is float:
        return value
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedProgramError("%s must be a number" % what)
    try:
        return float(value)
    except OverflowError:
        return math.inf


class CreaseSpec(_Record):
    """One fold line: centerline position, exact angle, layer jump."""

    __slots__ = _fields = __match_args__ = ("position", "angle", "layer_shift")
    position: float
    angle: ExactAngle
    layer_shift: int

    def __init__(self, position: float, angle: ExactAngle, layer_shift: int = 1):
        # the exact types first: builders, unfold and from_json pass them
        pos = position if type(position) is float else _real(position, "crease position")
        if not math.isfinite(pos) or pos <= 0.0:
            raise MalformedProgramError("crease position must be finite and positive")
        if type(angle) is not ExactAngle and not isinstance(angle, ExactAngle):
            raise MalformedProgramError("crease angle must be an ExactAngle")
        # tested on the float that layout divides by: an angle within about
        # 1e-308 pi of 0 has radians 0.0 and sine 0
        if not 0.0 < angle.radians < math.pi:
            raise MalformedProgramError("crease angle must lie strictly between 0 and pi")
        if type(layer_shift) is not int and (
            isinstance(layer_shift, bool) or not isinstance(layer_shift, int)
        ):
            raise MalformedProgramError("layer_shift must be an integer")
        if layer_shift == 0:
            raise MalformedProgramError("layer_shift must be nonzero")
        _set_crease_position(self, pos)
        _set_crease_angle(self, angle)
        _set_layer_shift(self, layer_shift)


_set_crease_position, _set_crease_angle, _set_layer_shift = CreaseSpec._setters.values()
_RIGHT_ANGLE = ExactAngle(1, 2)


class CutSpec(_Record):
    """A straight end cut for an open presentation."""

    __slots__ = _fields = __match_args__ = ("position", "angle")
    position: float
    angle: ExactAngle

    def __init__(self, position: float, angle: ExactAngle = _RIGHT_ANGLE):
        pos = position if type(position) is float else _real(position, "cut position")
        if not math.isfinite(pos):
            raise MalformedProgramError("cut position must be finite")
        if type(angle) is not ExactAngle and not isinstance(angle, ExactAngle):
            raise MalformedProgramError("cut angle must be an ExactAngle")
        if not 0.0 < angle.radians < math.pi:
            raise MalformedProgramError("cut angle must lie strictly between 0 and pi")
        _set_cut_position(self, pos)
        _set_cut_angle(self, angle)


_set_cut_position, _set_cut_angle = CutSpec._setters.values()


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise MalformedProgramError(message)


# the fields of a crease in the order a missing one is named; a cut has
# the first three
_LINE_FIELDS = ("position", "angle_num", "angle_den", "layer_shift")
_CUT_KEYS = frozenset(_LINE_FIELDS[:3])
_CREASE_KEYS = frozenset(_LINE_FIELDS)


def _json_line(
    entry, where: str, angles: dict, required: frozenset = _CUT_KEYS
) -> Tuple[object, ExactAngle]:
    # checks a crease or cut object and its fields, returns its position
    # (checked by CreaseSpec or CutSpec) and its exact angle, shared through
    # ``angles`` with every line of the document at the same (num, den); a
    # message is formatted only once its check has failed
    if not isinstance(entry, dict):
        raise MalformedProgramError("%s must be a JSON object" % where)
    if not entry.keys() >= required:
        missing = next(key for key in _LINE_FIELDS if key in required and key not in entry)
        raise MalformedProgramError("%s missing field %r" % (where, missing))
    num, den = entry["angle_num"], entry["angle_den"]
    # json reads every integer as an exact int, and type() leaves out bools
    if not (type(num) is int and type(den) is int):
        raise MalformedProgramError("%s angle_num and angle_den must be integers" % where)
    if not den > 0:
        raise MalformedProgramError("%s angle_den must be positive" % where)
    angle = angles.get((num, den))
    if angle is None:
        angle = angles[num, den] = ExactAngle(num, den)
    return entry["position"], angle


# one crease and one cut of FoldProgram.to_json, indented as
# json.dumps(..., indent=2) indents them in the document
_CREASE_JSON = (
    '    {\n      "angle_den": %d,\n      "angle_num": %d,\n'
    '      "layer_shift": %d,\n      "position": %r\n    }'
)
_CUT_JSON = '{\n    "angle_den": %d,\n    "angle_num": %d,\n    "position": %r\n  }'


def _cut_json(cut: CutSpec) -> str:
    return _CUT_JSON % (cut.angle.denominator, cut.angle.numerator, cut.position)


class FoldProgram(_Record):
    """A complete flat-fold recipe for one ribbon strip.

    ``presentation`` is "closed" for a loop whose last crease doubles
    as the seam, or "truncated" for an open strip that ``start_cut`` and
    ``end_cut`` both end; a closed program takes neither.  Crease
    positions are strictly increasing and, for closed programs, the
    final position is the loop's strip length.  ``weave`` is None, and
    the panel heights decide each crossing, or a mode of ``WEAVE_MODES``:
    "torus" puts over the passage that lies further along its own
    segment, which on a regular star is the outward-bound one.
    """

    _fields = __match_args__ = (
        "width", "creases", "presentation", "label", "start_cut", "end_cut", "weave")
    width: float
    creases: Tuple[CreaseSpec, ...]
    presentation: str
    label: str
    start_cut: Optional[CutSpec]
    end_cut: Optional[CutSpec]
    weave: Optional[str]

    def __init__(
        self,
        width: float,
        creases: Sequence[CreaseSpec],
        presentation: str = "closed",
        label: str = "",
        start_cut: Optional[CutSpec] = None,
        end_cut: Optional[CutSpec] = None,
        weave: Optional[str] = None,
    ):
        w = _real(width, "width")
        _require(math.isfinite(w) and w > 0.0, "width must be finite and positive")
        try:
            items = iter(creases)
        except TypeError:
            raise MalformedProgramError("creases must be an iterable of CreaseSpec") from None
        creases = tuple(items)
        # one walk: each crease's type, the strict increase, the shift sum
        previous, total = -math.inf, 0
        for c in creases:
            if type(c) is not CreaseSpec and not isinstance(c, CreaseSpec):
                raise MalformedProgramError("creases must be CreaseSpec instances")
            if not previous < c.position:
                raise MalformedProgramError("crease positions must be strictly increasing")
            previous = c.position
            total += c.layer_shift
        _require(
            presentation in ("closed", "truncated"),
            "presentation must be 'closed' or 'truncated'",
        )
        _require(isinstance(label, str), "label must be a string")
        if presentation == "closed":
            _require(len(creases) >= 1, "a closed program needs at least one crease")
            _require(
                start_cut is None and end_cut is None,
                "end cuts are only valid for truncated programs",
            )
            _require(total == 0, "closed program layer shifts must sum to zero")
        else:
            _require(
                isinstance(start_cut, CutSpec) and isinstance(end_cut, CutSpec),
                "a truncated program needs a CutSpec at each end",
            )
            # previous is the last crease's position, or -inf with none
            first = creases[0].position if creases else end_cut.position
            _require(start_cut.position < first, "start cut must precede the creases and end cut")
            _require(previous < end_cut.position, "end cut must follow the creases")
        if weave is not None and weave not in WEAVE_MODES:
            raise MalformedProgramError("unknown weave mode %r" % (weave,))
        self.__dict__.update(width=w, creases=creases, presentation=presentation, label=label,
                             start_cut=start_cut, end_cut=end_cut, weave=weave)

    def length(self) -> float:
        """Strip length of the flat ribbon before folding."""
        if self.presentation == "closed":
            return self.creases[-1].position
        return self.end_cut.position - self.start_cut.position

    def to_json(self) -> str:
        """The program as the bytes of ``json.dumps(doc, sort_keys=True, indent=2)``.

        Each crease and cut is written by one template with its keys in
        sorted order; ints go through ``%d`` and floats through ``repr``,
        as json writes them (every position and the width are finite).
        Only strings go through ``json.dumps``, for their escapes.
        """
        creases = ",\n".join([
            _CREASE_JSON % (c.angle.denominator, c.angle.numerator, c.layer_shift, c.position)
            for c in self.creases
        ])
        fields = ['{\n  "creases": ' + ("[\n%s\n  ]" % creases if creases else "[]")]
        if self.end_cut is not None:
            fields.append('  "end_cut": ' + _cut_json(self.end_cut))
        fields.append('  "label": ' + json.dumps(self.label))
        fields.append('  "presentation": ' + json.dumps(self.presentation))
        if self.start_cut is not None:
            fields.append('  "start_cut": ' + _cut_json(self.start_cut))
        if self.weave is not None:
            fields.append('  "weave": ' + json.dumps(self.weave))
        fields.append('  "width": %r' % (self.width,))
        return ",\n".join(fields) + "\n}\n"

    @classmethod
    def from_json(cls, text: str) -> "FoldProgram":
        _expect_type(text, str)
        try:
            doc = json.loads(text)
        # a document nested past the interpreter's recursion limit raises
        # RecursionError, not ValueError
        except (ValueError, RecursionError) as exc:
            raise MalformedProgramError("invalid JSON: %s" % exc) from exc
        _require(isinstance(doc, dict), "program document must be a JSON object")
        _require("width" in doc, "missing field 'width'")
        _require("presentation" in doc, "missing field 'presentation'")
        _require("creases" in doc, "missing field 'creases'")
        raw_creases = doc["creases"]
        _require(isinstance(raw_creases, list), "'creases' must be a list")
        creases = []
        angles: dict = {}
        # FoldProgram checks that the positions strictly increase
        for entry in raw_creases:
            position, angle = _json_line(entry, "crease", angles, _CREASE_KEYS)
            creases.append(CreaseSpec(position, angle, entry["layer_shift"]))
        # FoldProgram checks that a truncated program has both cuts
        cuts = {name: CutSpec(*_json_line(doc[name], name, angles))
                for name in ("start_cut", "end_cut") if doc.get(name) is not None}
        weave = doc.get("weave")
        _require(weave is None or isinstance(weave, str), "weave must be a string")
        return cls(
            width=doc["width"],
            creases=tuple(creases),
            presentation=doc["presentation"],
            label=doc.get("label", ""),
            weave=weave,
            **cuts,
        )


def _is_point(value) -> bool:
    """Whether value is a tuple of two numbers within the float range, which
    leaves out NaN, the infinities and the bools."""
    return isinstance(value, tuple) and len(value) == 2 and all(
        isinstance(v, (int, float)) and not isinstance(v, bool)
        and -sys.float_info.max <= v <= sys.float_info.max for v in value)


class Panel(_Record):
    """One placed quad of the folded layout.

    ``vertices`` are four corners in cyclic order.  Sides 0 and 2 (the
    side from vertex 0 to 1 and the side from vertex 2 to 3) lie on the
    ribbon edges and are parallel; sides 3 and 1 are the entering and
    leaving fold lines (or end cuts).  ``layer`` is the stacking height.
    """

    __slots__ = _fields = __match_args__ = ("vertices", "layer", "index")
    vertices: Tuple[
        Tuple[float, float], Tuple[float, float], Tuple[float, float], Tuple[float, float]]
    layer: int
    index: int

    def __init__(
        self,
        vertices: Tuple[
            Tuple[float, float], Tuple[float, float], Tuple[float, float], Tuple[float, float]],
        layer: int,
        index: int,
    ):
        if not (isinstance(vertices, tuple) and len(vertices) == 4
                and all(map(_is_point, vertices))):
            raise InvalidInputError("panel vertices must be four pairs of finite numbers")
        for name, value in (("layer", layer), ("index", index)):
            if isinstance(value, bool) or not isinstance(value, int):
                raise InvalidInputError("panel %s must be an int" % name)
        _set_vertices(self, vertices)
        _set_layer(self, layer)
        _set_index(self, index)

    def side(self, k: int) -> Tuple[Tuple[float, float], Tuple[float, float]]:
        a = self.vertices[k % 4]
        b = self.vertices[(k + 1) % 4]
        return (a, b)

    @property
    def orientation(self) -> int:
        """Sign of the quad's winding: +1 counterclockwise."""
        area2 = 0.0
        pts = self.vertices
        for i in range(4):
            ax, ay = pts[i]
            bx, by = pts[(i + 1) % 4]
            area2 += ax * by - ay * bx
        return 1 if area2 > 0 else -1


_set_vertices, _set_layer, _set_index = Panel._setters.values()


class FoldedLayout(_Record):
    """Placed panels plus the folded centerline of one program."""

    _fields = __match_args__ = ("panels", "centerline", "source")
    panels: Tuple[Panel, ...]
    centerline: Tuple[Tuple[Tuple[float, float], Tuple[float, float]], ...]
    source: Optional[FoldProgram]

    def __init__(
        self,
        panels: Tuple[Panel, ...],
        centerline: Tuple[Tuple[Tuple[float, float], Tuple[float, float]], ...],
        source: Optional[FoldProgram] = None,
    ):
        if not isinstance(panels, tuple) or not all(isinstance(p, Panel) for p in panels):
            raise InvalidInputError("layout panels must be a tuple of Panel")
        if not isinstance(centerline, tuple) or not all(
            isinstance(s, tuple) and len(s) == 2 and all(map(_is_point, s)) for s in centerline
        ):
            raise InvalidInputError("layout centerline must be a tuple of point pairs")
        if source is not None and not isinstance(source, FoldProgram):
            raise InvalidInputError("layout source must be a FoldProgram or None")
        self.__dict__.update(panels=panels, centerline=centerline, source=source)

    @property
    def width(self) -> float:
        if self.source is not None:
            return self.source.width
        if not self.panels:
            raise InvalidInputError("layout has no panels")
        return _panel_frames(self.panels[:1])[0][0]

    @property
    def closed(self) -> bool:
        """Whether the source program is closed or, with none, the
        centerline ends within 1e-6 * max(width, 1) of its start."""
        if not self.panels:
            raise InvalidInputError("layout has no panels")
        if len(self.panels) != len(self.centerline):
            raise InconsistencyError("panel and centerline counts disagree")
        if self.source is not None:
            return self.source.presentation == "closed"
        gap = math.dist(self.centerline[-1][1], self.centerline[0][0])
        return gap <= 1e-6 * max(self.width, 1.0)

    def bounding_box(self) -> Tuple[float, float, float, float]:
        if not self.panels:
            raise InvalidInputError("layout has no panels")
        xs = [p[0] for panel in self.panels for p in panel.vertices]
        ys = [p[1] for panel in self.panels for p in panel.vertices]
        return (min(xs), min(ys), max(xs), max(ys))


def _boundaries(program: FoldProgram) -> list:
    """Panel boundary lines as (position, ExactAngle, is_crease)."""
    creases = [(c.position, c.angle, True) for c in program.creases]
    if program.presentation == "closed":
        seam = program.creases[-1].angle
        if len(program.creases) % 2 == 1:
            # an odd crease count closes with a reflection, which shows
            # the seam line to the first panel at the supplementary angle
            seam = seam.supplement()
        return [(0.0, seam, False)] + creases
    start, end = program.start_cut, program.end_cut
    return [(start.position, start.angle, False)] + creases + [(end.position, end.angle, False)]


def layout(program: FoldProgram) -> FoldedLayout:
    """Realize a fold program as placed panels in the plane.

    Panels are laid down left to right; each crease reflects the rest
    of the strip across its line, so panel k is carried by the product
    of the first k-1 crease reflections, kept as six affine floats.
    Cosine and sine are taken once per distinct boundary angle.  The
    order of every float operation below, including the
    ``(xb + cos) - xb`` and ``* 0.0`` terms, is pinned bit for bit by
    ``tests/test_bit_identity.py`` and must not be reordered.  Raises
    MalformedProgramError if consecutive boundary lines cross inside the
    strip, and ClosureError if a closed program's seam misses its start.
    """
    _expect_type(program, FoldProgram)
    w = program.width
    half = 0.5 * w
    bounds = _boundaries(program)
    # (cos, sin) of each boundary angle, computed once per distinct angle
    trig = {}
    cos_sin = []
    for _, angle, _ in bounds:
        key = (angle.numerator, angle.denominator)
        pair = trig.get(key)
        if pair is None:
            r = angle.radians
            pair = trig[key] = (math.cos(r), math.sin(r))
        cos_sin.append(pair)
    # x offset of each boundary line where it meets the two edges
    reaches = [half * cos / sin for cos, sin in cos_sin]
    tol = 1e-9 * max(w, 1.0)
    for k in range(len(bounds) - 1):
        xa, xb = bounds[k][0], bounds[k + 1][0]
        ca, cb = reaches[k], reaches[k + 1]
        if (xb - cb) - (xa - ca) < -tol or (xb + cb) - (xa + ca) < -tol:
            raise MalformedProgramError(
                "boundary lines %d and %d cross inside the ribbon" % (k, k + 1)
            )
    panels = []
    segments = []
    # the running map sends (x, y) to (a*x + b*y + tx, c*x + d*y + ty)
    a, b, tx, c, d, ty = 1.0, 0.0, 0.0, 0.0, 1.0, 0.0
    # every field is computed here, so each Panel and the FoldedLayout are
    # stored without the checks of their __init__
    new_record = object.__new__
    layer = 0
    count = len(bounds) - 1
    for k in range(count):
        xa = bounds[k][0]
        xb, _, b_is_crease = bounds[k + 1]
        ca, cb = reaches[k], reaches[k + 1]
        # the placed corners (xa - ca, -half), (xb - cb, -half),
        # (xb + cb, half) and (xa + ca, half)
        x0, x1, x2, x3 = xa - ca, xb - cb, xb + cb, xa + ca
        placed = (
            (a * x0 + b * -half + tx, c * x0 + d * -half + ty),
            (a * x1 + b * -half + tx, c * x1 + d * -half + ty),
            (a * x2 + b * half + tx, c * x2 + d * half + ty),
            (a * x3 + b * half + tx, c * x3 + d * half + ty),
        )
        panel = new_record(Panel)
        _set_vertices(panel, placed)
        _set_layer(panel, layer)
        _set_index(panel, k)
        panels.append(panel)
        segments.append(((a * xa + b * 0.0 + tx, c * xa + d * 0.0 + ty),
                         (a * xb + b * 0.0 + tx, c * xb + d * 0.0 + ty)))
        if b_is_crease:
            # the mirror (ma, mb, mtx, mb, -ma, mty) across the line through
            # (xb, 0) and (xb + cos, sin); sin is positive on (0, pi)
            cos_b, sin_b = cos_sin[k + 1]
            ux, uy = (xb + cos_b) - xb, sin_b
            norm = math.hypot(ux, uy)
            if norm < 1e-15:
                # an angle so near 0 or pi that cos is lost against xb and
                # sin is below 1e-15 leaves no line to reflect across
                raise MalformedProgramError(
                    "crease %d at position %r: its angle is too close to 0 or pi "
                    "for a crease line at that position" % (k, xb)
                )
            ux /= norm
            uy /= norm
            ma = ux * ux - uy * uy
            mb = 2.0 * ux * uy
            mtx = xb - (ma * xb + mb * 0.0)
            mty = 0.0 - (mb * xb - ma * 0.0)
            # the running map after the mirror: map . mirror
            md = -ma
            a, b, tx, c, d, ty = (
                a * ma + b * mb,
                a * mb + b * md,
                a * mtx + b * mty + tx,
                c * ma + d * mb,
                c * mb + d * md,
                c * mtx + d * mty + ty,
            )
            if k < count - 1:
                layer += program.creases[k].layer_shift
    if program.presentation == "closed":
        # the running map is now the product of all crease reflections
        length = program.creases[-1].position
        gap = math.hypot(a * length + b * 0.0 + tx, c * length + d * 0.0 + ty)
        turn = math.hypot(a * 1.0 + b * 0.0 - 1.0, c * 1.0 + d * 0.0)
        if gap > CLOSURE_TOLERANCE or turn > CLOSURE_TOLERANCE:
            raise ClosureError(
                "seam misses start: offset %.3e, direction error %.3e" % (gap, turn)
            )
    lay = new_record(FoldedLayout)
    lay.__dict__.update(panels=tuple(panels), centerline=tuple(segments), source=program)
    return lay


def _panel_frames(panels: Sequence[Panel]) -> Tuple[list, list, list]:
    """Width, Panel.orientation sign and leaving side vector of each panel,
    from one read of its corners; its two ribbon-edge sides must be parallel."""
    widths, signs, leaving = [], [], []
    for panel in panels:
        (x0, y0), (x1, y1), (x2, y2), (x3, y3) = panel.vertices
        ux, uy = x1 - x0, y1 - y0
        norm = math.hypot(ux, uy)
        if norm < 1e-15:
            raise InconsistencyError("panel %d has a degenerate edge side" % panel.index)
        d2 = abs(ux * (y2 - y0) - uy * (x2 - x0)) / norm
        d3 = abs(ux * (y3 - y0) - uy * (x3 - x0)) / norm
        if abs(d2 - d3) > 1e-9 * max(d2, d3, 1.0):
            raise InconsistencyError("panel %d edge sides are not parallel" % panel.index)
        widths.append(0.5 * (d2 + d3))
        area2 = ((x0 * y1 - y0 * x1) + (x1 * y2 - y1 * x2)
                 + (x2 * y3 - y2 * x3) + (x3 * y0 - y3 * x0))
        signs.append(1 if area2 > 0 else -1)
        leaving.append((x2 - x1, y2 - y1))
    return widths, signs, leaving


def centerline_length(obj: Union[FoldProgram, FoldedLayout]) -> float:
    """Total centerline length of a program or of its placed layout."""
    if isinstance(obj, FoldProgram):
        return obj.length()
    if isinstance(obj, FoldedLayout):
        # dist takes the norm of the differences by hypot's own routine
        return math.fsum(starmap(math.dist, obj.centerline))
    raise InvalidInputError("expected a FoldProgram or FoldedLayout")


def ratio(obj: Union[FoldProgram, FoldedLayout]) -> float:
    """Length-to-width ratio of the flat strip."""
    if isinstance(obj, FoldProgram):
        return obj.length() / obj.width
    if isinstance(obj, FoldedLayout):
        return centerline_length(obj) / obj.width
    raise InvalidInputError("expected a FoldProgram or FoldedLayout")


def _recovered_angle(
    seg: Tuple[Tuple[float, float], Tuple[float, float]],
    side: Tuple[float, float],
    orientation: int,
    memo: list,
) -> ExactAngle:
    """Strip angle of a boundary line, from its centerline segment, the
    vector of its panel side and that panel's winding sign; ``memo`` holds
    (num, den, scale, angle) of up to 16 angles snapped with den <= 10**4."""
    ux, uy = seg[1][0] - seg[0][0], seg[1][1] - seg[0][1]
    vx, vy = side
    if math.hypot(ux, uy) < 1e-15 or math.hypot(vx, vy) < 1e-15:
        raise InconsistencyError("degenerate segment while recovering an angle")
    phi = math.atan2(_cross(ux, uy, vx, vy), ux * vx + uy * vy)
    theta = (orientation * phi) % math.pi
    if theta < 1e-12 or math.pi - theta < 1e-12:
        raise InconsistencyError("boundary line is parallel to the centerline")
    for num, den, scale, angle in memo:
        if abs(num / den * math.pi - theta) <= _UNFOLD_ANGLE_TOLERANCE * scale:
            return angle
    angle = ExactAngle.from_float(theta, tolerance=_UNFOLD_ANGLE_TOLERANCE)
    den = angle.denominator
    # the bound keeps a miss cheap when a layout has many distinct angles
    if den <= 10**4 and len(memo) < 16:
        memo.append((angle.numerator, den, min(1.0, (1000.0 / den) ** 2), angle))
    return angle


def _prefix_sums(values: Sequence[float]) -> list:
    """``math.fsum(values[:k])`` for k = 1 .. len(values), in linear time.

    Finite values are summed exactly, as integers over their common
    power-of-two denominator, and each prefix is rounded once by int true
    division, which rounds correctly as fsum does.  As in fsum, from the
    first non-finite value on a prefix is the sum of the non-finite ones.
    """
    ratios = [v.as_integer_ratio() if math.isfinite(v) else (0, 1) for v in values]
    den = max((d for _, d in ratios), default=1)
    total, special, sums = 0, 0.0, []
    for v, (n, d) in zip(values, ratios):
        total += n * (den // d)
        if not math.isfinite(v):
            special += v
        sums.append(special or total / den)
    return sums


def unfold(lay: FoldedLayout) -> FoldProgram:
    """Recover the fold program of a placed layout.

    The strip is rebuilt from measured panel geometry alone: positions
    from accumulated centerline segment lengths, the width from edge
    side distances, angles from the turn between each centerline
    segment and its boundary line, snapped back to rational multiples
    of pi as ``ExactAngle.from_float`` snaps them at a fixed 1e-11 rad.
    Each distinct angle of denominator up to 10**4 is snapped once per
    call; a later angle that passes its test in ``from_float``, within
    1e-11 / pi of num/den, is well inside 1/(2 * den * 10**4), the
    distance from num/den within which no other fraction of denominator
    up to 10**4 lies (Farey spacing), so ``from_float`` would return it
    too.  The program is closed when ``lay.closed`` holds and truncated
    otherwise; its label and weave are the source's, or "" and None.
    Raises InconsistencyError when panels disagree about the width.

    No builder calls this: it is an oracle, independent of the exact
    crease data, that tests hold programs against.
    """
    _expect_type(lay, FoldedLayout)
    # rejects a layout with no panels, or with other than one per segment
    closed = lay.closed
    panels = lay.panels
    src = lay.source
    label, weave = (src.label, src.weave) if src is not None else ("", None)

    widths, signs, leaving = _panel_frames(panels)
    w = widths[0]
    for k, wk in enumerate(widths):
        if abs(wk - w) > 1e-9 * max(w, 1.0):
            raise InconsistencyError("panel %d width %.12g disagrees with %.12g" % (k, wk, w))
    if src is not None and abs(w - src.width) > 1e-9 * max(w, 1.0):
        raise InconsistencyError("measured width disagrees with the source program")

    positions = _prefix_sums(
        [math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in lay.centerline]
    )

    memo: list = []
    centerline, last = lay.centerline, len(panels) - 1
    creases = []
    for k in range(last):
        angle = _recovered_angle(centerline[k], leaving[k], signs[k], memo)
        shift = panels[k + 1].layer - panels[k].layer
        if shift == 0:
            raise InconsistencyError("panels %d and %d share a layer" % (k, k + 1))
        creases.append(CreaseSpec(positions[k], angle, shift))
    if closed:
        angle = _recovered_angle(centerline[last], leaving[last], signs[last], memo)
        shift = -sum(c.layer_shift for c in creases)
        if shift == 0:
            raise InconsistencyError("seam panels share a layer")
        creases.append(CreaseSpec(positions[-1], angle, shift))
        return FoldProgram(
            width=w,
            creases=tuple(creases),
            presentation="closed",
            label=label,
            weave=weave,
        )
    (x0, y0), _, _, (x3, y3) = panels[0].vertices
    start_angle = _recovered_angle(centerline[0], (x0 - x3, y0 - y3), signs[0], memo)
    end_angle = _recovered_angle(centerline[last], leaving[last], signs[last], memo)
    return FoldProgram(
        width=w,
        creases=tuple(creases),
        presentation="truncated",
        label=label,
        start_cut=CutSpec(0.0, start_angle),
        end_cut=CutSpec(positions[-1], end_angle),
        weave=weave,
    )


def _intersect_lines(
    p: Tuple[float, float], ux: float, uy: float, q: Tuple[float, float], vx: float, vy: float
) -> Tuple[float, float]:
    """Intersection of the lines p + t*u and q + s*v."""
    denom = _cross(ux, uy, vx, vy)
    if abs(denom) < 1e-13 * max(math.hypot(ux, uy) * math.hypot(vx, vy), 1e-30):
        raise MalformedProgramError("boundary line is parallel to a ribbon edge")
    t = _cross(q[0] - p[0], q[1] - p[1], vx, vy) / denom
    return (p[0] + t * ux, p[1] + t * uy)


def layout_from_centerline(
    points: Sequence[Tuple[float, float]],
    width: float,
    heights: Sequence[int],
    *,
    closed: bool,
) -> FoldedLayout:
    """Build a placed layout directly from a centerline polyline.

    For a closed polyline ``points`` lists each vertex once; panel k
    runs from vertex k to vertex k+1 (wrapping).  The boundary line at
    a vertex bisects the turn there, which is exactly the line a flat
    fold must crease along.  An open polyline ends in square cuts.

    ``heights`` gives each panel's stacking layer.  The result has no
    source program; pass it to ``unfold`` to recover one.  Builders do
    not use it: tests place a family's polyline with it and compare the
    unfolded program with the one the builder emits.
    """
    try:
        pts = [(float(x), float(y)) for x, y in points]
    except (TypeError, ValueError, OverflowError):
        raise InvalidInputError("centerline vertices must be pairs of numbers") from None
    if not all(math.isfinite(x) and math.isfinite(y) for x, y in pts):
        raise InvalidInputError("centerline vertices must be finite")
    # type() leaves out bools, which int() would read as 0 and 1
    if not isinstance(heights, (list, tuple)) or any(type(h) is not int for h in heights):
        raise InvalidInputError("heights must be a list or tuple of ints")
    if closed:
        if len(pts) < 3:
            raise InvalidInputError("a closed centerline needs at least 3 vertices")
        count = len(pts)
    else:
        if len(pts) < 2:
            raise InvalidInputError("an open centerline needs at least 2 vertices")
        count = len(pts) - 1
    if len(heights) != count:
        raise InvalidInputError("heights must match the panel count")
    if isinstance(width, bool) or not isinstance(width, (int, float)):
        raise InvalidInputError("width must be a number, got %s" % type(width).__name__)
    # NaN fails both comparisons; an int past the float range fails the second
    if not 0 < width <= sys.float_info.max:
        raise InvalidInputError("width must be finite and positive")
    half = 0.5 * float(width)

    dirs = []
    for k in range(count):
        a = pts[k]
        b = pts[(k + 1) % len(pts)]
        ux, uy = b[0] - a[0], b[1] - a[1]
        norm = math.hypot(ux, uy)
        if norm < 1e-12:
            raise InvalidInputError("centerline vertices %d and %d coincide" % (k, k + 1))
        dirs.append((ux / norm, uy / norm))

    def bisector(u_in, u_out):
        # normal of u_out - u_in: unlike u_in + u_out it does not cancel
        # at a turn of nearly pi, and a reversal gives the perpendicular
        return (u_in[1] - u_out[1], u_out[0] - u_in[0])

    # boundary line directions at each panel border
    borders = []
    if closed:
        for k in range(count):
            borders.append(bisector(dirs[k - 1], dirs[k]))
        borders.append(borders[0])
    else:
        borders.append((-dirs[0][1], dirs[0][0]))
        for k in range(1, count):
            borders.append(bisector(dirs[k - 1], dirs[k]))
        borders.append((-dirs[-1][1], dirs[-1][0]))

    panels = []
    segments = []
    # the panels are stored without Panel's checks, as layout stores them:
    # corners that overflow to NaN reach extract_diagram, which rejects them
    new_record = object.__new__
    for k in range(count):
        a = pts[k]
        b = pts[(k + 1) % len(pts)]
        ux, uy = dirs[k]
        nx, ny = -uy, ux
        bottom = (a[0] - nx * half, a[1] - ny * half)
        top = (a[0] + nx * half, a[1] + ny * half)
        da, db = borders[k], borders[k + 1]
        p0 = _intersect_lines(bottom, ux, uy, a, da[0], da[1])
        p1 = _intersect_lines(bottom, ux, uy, b, db[0], db[1])
        p2 = _intersect_lines(top, ux, uy, b, db[0], db[1])
        p3 = _intersect_lines(top, ux, uy, a, da[0], da[1])
        quad = (p0, p1, p2, p3) if k % 2 == 0 else (p3, p2, p1, p0)
        panel = new_record(Panel)
        _set_vertices(panel, quad)
        _set_layer(panel, heights[k])
        _set_index(panel, k)
        panels.append(panel)
        segments.append((a, b))
    return FoldedLayout(tuple(panels), tuple(segments), None)
