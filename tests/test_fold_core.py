"""Unit tests for the planar fold kernel."""

import copy
import dataclasses
import itertools
import json
import math
import pickle
import random
from fractions import Fraction

import pytest

from ribbonfold import (
    ClosureError,
    CreaseSpec,
    CutSpec,
    ExactAngle,
    FamilyId,
    FoldProgram,
    FoldedLayout,
    InconsistencyError,
    InvalidInputError,
    MalformedProgramError,
    Panel,
    Point,
    WeaveRule,
    build,
    centerline_length,
    layout,
    layout_from_centerline,
    ratio,
    to_svg,
    unfold,
)
from ribbonfold.fold_core import WEAVE_MODES, _limit_denominator, _pi_turns, _prefix_sums

from diagram_sources import (
    boundary_outcomes,
    crease_oracle,
    cut_oracle,
    farey_memo,
    spec_outcome,
)


def assert_points_close(actual, expected, tol=1e-12):
    flat_a = [coord for pt in actual for coord in pt]
    flat_e = [coord for pt in expected for coord in pt]
    assert flat_a == pytest.approx(flat_e, abs=tol)


def make_truncated(creases, width=1.0, start=None, end=None, **kw):
    return FoldProgram(
        width=width,
        creases=tuple(creases),
        presentation="truncated",
        start_cut=start,
        end_cut=end,
        **kw,
    )


def triangle_program(width=0.2):
    s = math.sqrt(3.0) / 2.0
    pts = [Point(0.0, 0.0), Point(1.0, 0.0), Point(0.5, s)]
    lay = layout_from_centerline(pts, width, [0, 1, 2], closed=True)
    return dataclasses.replace(unfold(lay), label="triangle")


# ---------------------------------------------------------------- ExactAngle


def test_exact_angle_reduces_and_normalizes():
    assert ExactAngle(3, 6) == ExactAngle(1, 2)
    assert ExactAngle(-1, 2) == ExactAngle(3, 2)
    assert ExactAngle(9, 3) == ExactAngle(1, 1)
    assert ExactAngle(2, 1) == ExactAngle(0, 1)
    assert ExactAngle(1, -2) == ExactAngle(3, 2)
    big = 10**300
    for num, den in [(0, 5), (0, -7), (-3, 6), (-9, -4), (7, -2), (-12, 4), (4, 2),
                     (big, 3), (-big, 3), (big + 1, big), (-(big + 1), big),
                     (6 * big, 4 * big), (-(2 * big + 14), big + 7), (3 * big - 1, -big)]:
        angle = ExactAngle(num, den)
        want = Fraction(num, den) % 2
        assert (angle.numerator, angle.denominator) == (want.numerator, want.denominator)


def test_exact_angle_radians_and_supplement():
    assert ExactAngle(1, 2).radians == pytest.approx(math.pi / 2, abs=0.0)
    assert ExactAngle(1, 7).supplement() == ExactAngle(6, 7)
    assert ExactAngle(2, 3).supplement() == ExactAngle(1, 3)


RADIANS_CASES = [
    (1, 2), (1, 7), (6, 7), (-1, 3), (7, -5), (699, 1000), (1, 10**12),
    (10**12 - 1, 10**12), (10**600 // 2 + 1, 10**600), (10**300 + 1, 10**300),
    # radians that underflow to 0.0 or round to exactly pi
    (1, 10**600), (10**600 - 1, 10**600), (1, 10**400),
]


def test_exact_angle_stores_the_float_of_its_reduced_fraction():
    for num, den in RADIANS_CASES:
        angle = ExactAngle(num, den)
        # a stored slot, not a property that divides again on each read
        assert "radians" in type(angle).__slots__
        want = angle.numerator / angle.denominator * math.pi
        assert angle.radians.hex() == want.hex(), (num, den)
    assert ExactAngle(1, 10**600).radians == 0.0
    assert ExactAngle(10**600 - 1, 10**600).radians == math.pi
    # the checks read the stored float, so both ends are still refused
    for angle in (ExactAngle(1, 10**600), ExactAngle(10**600 - 1, 10**600)):
        with pytest.raises(MalformedProgramError, match="strictly between 0 and pi"):
            CreaseSpec(1.0, angle)
        with pytest.raises(MalformedProgramError, match="strictly between 0 and pi"):
            CutSpec(1.0, angle)


def test_exact_angle_radians_is_no_part_of_its_value():
    angle = ExactAngle(2, 6)
    assert ExactAngle.__match_args__ == ("numerator", "denominator")
    assert repr(angle) == "ExactAngle(1, 3)"
    radians = {field.name: field for field in dataclasses.fields(angle)}["radians"]
    assert (radians.init, radians.repr, radians.compare) == (False, False, False)
    assert hash(angle) == hash(ExactAngle(1, 3))
    # an angle that differs only in its stored float still compares equal
    other = ExactAngle(1, 3)
    object.__setattr__(other, "radians", 0.5)
    assert other == angle and hash(other) == hash(angle)
    with pytest.raises(TypeError):
        ExactAngle(1, 3, 1.0)
    for again in (pickle.loads(pickle.dumps(angle)), copy.copy(angle), copy.deepcopy(angle)):
        assert again.radians.hex() == angle.radians.hex()
    changed = dataclasses.replace(angle, numerator=1, denominator=4)
    assert changed.radians == 1 / 4 * math.pi
    with pytest.raises(ValueError):
        dataclasses.replace(angle, radians=0.5)


def test_exact_angle_from_float_snaps_small_denominators():
    for num, den in [(1, 7), (3, 14), (2, 5), (1, 2), (699, 1000)]:
        value = num * math.pi / den
        snapped = ExactAngle.from_float(value + 3e-11)
        assert snapped == ExactAngle(num, den)


def test_exact_angle_from_float_keeps_generic_angles():
    value = 1.2345678901
    snapped = ExactAngle.from_float(value)
    assert abs(snapped.radians - value) <= 1e-9


def test_exact_angle_from_float_scales_tolerance_past_denominator_1000():
    for num, den in [(2, 1001), (999, 1001), (2, 1653), (600, 1201)]:
        snapped = ExactAngle.from_float(num * math.pi / den + 2e-12, tolerance=1e-11)
        assert snapped == ExactAngle(num, den)
    # a denominator near 10**4 must match a hundred times closer
    value = 1234 * math.pi / 9999 + 5e-12
    snapped = ExactAngle.from_float(value, tolerance=1e-11)
    assert snapped != ExactAngle(1234, 9999)
    assert abs(snapped.radians - value) <= 1e-11


def farey_midpoint(rng, max_den):
    """A fraction exactly halfway between two neighbours of denominator
    at most max_den, so that limit_denominator meets a tie."""
    while True:
        b = rng.randint(1, max_den)
        e = rng.randint(max(1, max_den - b + 1), max_den)
        if math.gcd(b, e) == 1:
            break
    # a/b < c/e with c*b - a*e = 1, shifted by a whole number
    a = -pow(e, -1, b) % b if b > 1 else 0
    c = (1 + a * e) // b
    shift = rng.randint(-3, 3)
    a, c = a + shift * b, c + shift * e
    mid = Fraction(a * e + c * b, 2 * b * e)
    return mid.numerator, mid.denominator


def limit_denominator_sample(max_den):
    rng = random.Random(max_den)
    pairs = [farey_midpoint(rng, max_den) for _ in range(300)]
    pairs += [(1, 2), (0, 1), (-7, 3), (max_den - 1, max_den), (1, max_den)]
    for _ in range(300):
        den = rng.randint(1, max_den)
        pairs.append((rng.randint(-5 * den, 5 * den), den))
    for _ in range(300):
        den = rng.randint(max_den + 1, max_den**3)
        pairs.append((rng.randint(-5 * den, 5 * den), den))
    for n in (3, 7, 1001, 1653, 20001):
        for k in range(1, 2 * n, max(1, n // 20)):
            pairs.append(_pi_turns(k * math.pi / n))
            pairs.append(_pi_turns(k * math.pi / n + 3e-12))
    pairs.append(_pi_turns(-2.5))
    return [(f.numerator, f.denominator) for f in (Fraction(n, d) for n, d in pairs)]


@pytest.mark.parametrize("max_den", [10**4, 10**12])
def test_limit_denominator_matches_fraction(max_den):
    ties = 0
    for n, d in limit_denominator_sample(max_den):
        want = Fraction(n, d).limit_denominator(max_den)
        assert _limit_denominator(n, d, max_den) == (want.numerator, want.denominator), (n, d)
        # count the ties: the reflection of the answer through n/d is
        # another fraction within max_den
        other = 2 * Fraction(n, d) - want
        ties += other != want and other.denominator <= max_den
    assert ties >= 300


def test_pi_turns_is_the_fraction_of_radians_over_pi():
    for radians in (0.0, 1.0, -2.5, math.pi, 1e-300, 5e-324, 1e300, 3 * math.pi / 7):
        n, d = _pi_turns(radians)
        assert Fraction(n, d) == Fraction(radians) / Fraction(math.pi)
        assert d > 0 and math.gcd(n, d) == 1


def test_exact_angle_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        ExactAngle(1, 0)
    with pytest.raises(InvalidInputError):
        ExactAngle(1.5, 2)
    with pytest.raises(InvalidInputError):
        ExactAngle.from_float(float("nan"))


def test_exact_angle_bounds_its_reduced_denominator():
    # to_json of this angle once raised a bare ValueError from CPython's
    # limit on the digits of an int turned into a string
    with pytest.raises(MalformedProgramError, match="at most 10"):
        ExactAngle(10**5000 + 1, 3 * 10**5000)
    with pytest.raises(MalformedProgramError):
        ExactAngle(1, 10**600 + 1)
    # the bound is on the reduced fraction; the shorts' 10**12 is far inside
    assert ExactAngle(10**5000, 2 * 10**5000) == ExactAngle(1, 2)
    assert ExactAngle(1, 10**12).denominator == 10**12
    largest = make_truncated([CreaseSpec(1.0, ExactAngle(10**600 // 2 + 1, 10**600))])
    assert FoldProgram.from_json(largest.to_json()) == largest


# ----------------------------------------------------------------- reflection
# layout carries each panel by the product of the crease reflections before
# it; these tests check that product against reflections computed here


def mirror(p, line):
    """Reflect p across the line through two distinct points."""
    (ax, ay), (bx, by) = line
    ux, uy = bx - ax, by - ay
    t = ((p[0] - ax) * ux + (p[1] - ay) * uy) / (ux * ux + uy * uy)
    fx, fy = ax + t * ux, ay + t * uy
    return Point(2.0 * fx - p[0], 2.0 * fy - p[1])


def strip_line(crease):
    """The crease line in strip coordinates, before any folding."""
    r = crease.angle.radians
    return (Point(crease.position, 0.0), Point(crease.position + math.cos(r), math.sin(r)))


def test_reflect_point_axes():
    # a perpendicular crease mirrors the rest of the strip across a vertical axis
    crease = CreaseSpec(2.0, ExactAngle(1, 2))
    lay = layout(make_truncated([crease], start=CutSpec(0.0), end=CutSpec(3.0)))
    want = ((2.0, -0.5), (1.0, -0.5), (1.0, 0.5), (2.0, 0.5))
    assert_points_close(lay.panels[1].vertices, want)
    assert_points_close(lay.centerline[1], ((2.0, 0.0), (1.0, 0.0)))
    # after a diagonal fold sends the strip up, a perpendicular crease lies
    # on the horizontal line y = 1 and mirrors the rest across it
    lay = layout(
        make_truncated(
            [CreaseSpec(2.0, ExactAngle(1, 4)), CreaseSpec(3.0, ExactAngle(1, 2))],
            start=CutSpec(0.0),
            end=CutSpec(4.0),
        )
    )
    assert_points_close(lay.centerline[1], ((2.0, 0.0), (2.0, 1.0)))
    assert_points_close(lay.centerline[2], ((2.0, 1.0), (2.0, 0.0)))


def test_reflect_point_fixes_points_on_the_line():
    # the points of each crease line stay put: the two panels it joins
    # share its end points, and the centerline meets on it
    rng = random.Random(12345)
    creases = []
    x = 0.0
    for _ in range(40):
        x += rng.uniform(2.0, 3.0)
        creases.append(CreaseSpec(x, ExactAngle(rng.randint(1, 5), 6)))
    lay = layout(make_truncated(creases))
    for left, right in zip(lay.panels, lay.panels[1:]):
        shared = (left.vertices[1], left.vertices[2])
        assert_points_close((right.vertices[0], right.vertices[3]), shared, tol=1e-9)
    for (_, end), (start, _) in zip(lay.centerline, lay.centerline[1:]):
        assert_points_close((start,), (end,), tol=1e-9)


def test_reflect_point_is_an_involution():
    # mirroring the folded panel back across its crease unfolds it: the
    # crease reflection undoes itself
    rng = random.Random(12345)
    for _ in range(100):
        pos = rng.uniform(1.0, 5.0)
        angle = ExactAngle.from_float(rng.uniform(0.3, math.pi - 0.3))
        crease = CreaseSpec(pos, angle)
        lay = layout(make_truncated([crease], start=CutSpec(pos - 2.0), end=CutSpec(pos + 2.0)))
        reach = 0.5 / math.tan(angle.radians)
        folded, first = lay.panels[1], lay.panels[0]
        unfolded = [mirror(p, first.side(1)) for p in folded.vertices]
        want = ((pos - reach, -0.5), (pos + 2.0, -0.5), (pos + 2.0, 0.5), (pos + reach, 0.5))
        assert_points_close(unfolded, want, tol=1e-9)


def test_isometry_compose_matches_sequential_apply():
    c1 = CreaseSpec(1.0, ExactAngle(1, 4))
    c2 = CreaseSpec(3.0, ExactAngle(2, 3))
    lay = layout(make_truncated([c1, c2], start=CutSpec(0.0), end=CutSpec(4.5)))
    # panel 3 is carried by the first reflection after the second
    reach = 0.5 / math.tan(c2.angle.radians)
    corners = ((3.0 - reach, -0.5), (4.5, -0.5), (4.5, 0.5), (3.0 + reach, 0.5))
    want = [mirror(mirror(p, strip_line(c2)), strip_line(c1)) for p in corners]
    assert_points_close(lay.panels[2].vertices, want, tol=1e-12)
    assert [p.orientation for p in lay.panels] == [1, -1, 1]


# ------------------------------------------------------------------ programs


def test_crease_validation():
    with pytest.raises(MalformedProgramError):
        CreaseSpec(0.0, ExactAngle(1, 2))
    with pytest.raises(MalformedProgramError):
        CreaseSpec(-1.0, ExactAngle(1, 2))
    with pytest.raises(MalformedProgramError):
        CreaseSpec(1.0, ExactAngle(0, 1))
    with pytest.raises(MalformedProgramError):
        CreaseSpec(1.0, ExactAngle(1, 1))
    with pytest.raises(MalformedProgramError):
        CreaseSpec(1.0, ExactAngle(1, 2), 0)
    with pytest.raises(MalformedProgramError):
        CreaseSpec(1.0, ExactAngle(1, 2), 1.5)


class _Real(float):
    pass


class _Shift(int):
    pass


class _Angle(ExactAngle):
    pass


SPEC_POSITIONS = (
    1.5, 3, _Real(2.5), 10**400, -(10**400), True, False, "1.0", None, Fraction(3, 2),
    math.nan, math.inf, -math.inf, 0, 0.0, -0.0, -2.0, -1, 5e-324,
    # float subclasses miss the exact-float test and take the general check
    _Real(math.nan), _Real(math.inf), _Real(-math.inf), _Real(0.0), _Real(-0.0),
    Fraction(0), Fraction(-1, 2), "nan",
)
SPEC_ANGLES = (
    ExactAngle(1, 2), ExactAngle(3, 2), ExactAngle(0, 1), ExactAngle(1, 1),
    # near 0: radians 1e-300 * pi, then radians that round to 0.0
    ExactAngle(1, 10**300), ExactAngle(1, 10**400), ExactAngle(1, 10**600),
    # near pi: radians just below pi, then radians that round to pi
    ExactAngle(10**15 - 1, 10**15), ExactAngle(10**17 - 1, 10**17),
    ExactAngle(10**600 - 1, 10**600),
    # a subclass passes the isinstance check behind the exact-type one
    _Angle(1, 3), _Angle(0, 1),
    0.5, None, (1, 2), Fraction(1, 2),
)
SPEC_SHIFTS = (1, -2, 0, True, False, 1.0, 10**30, -(10**30), "1", None, _Shift(2), _Shift(0))


def test_crease_and_cut_check_as_their_oracles_do():
    for position, angle in itertools.product(SPEC_POSITIONS, SPEC_ANGLES):
        case = (position, angle)
        assert spec_outcome(CutSpec, *case) == spec_outcome(cut_oracle, *case), case
        for shift in SPEC_SHIFTS:
            case = (position, angle, shift)
            assert spec_outcome(CreaseSpec, *case) == spec_outcome(crease_oracle, *case), case
    assert spec_outcome(CutSpec, 1.0) == spec_outcome(cut_oracle, 1.0)
    assert spec_outcome(CreaseSpec, 1.0, ExactAngle(1, 3)) == spec_outcome(
        crease_oracle, 1.0, ExactAngle(1, 3))


def _value_objects():
    program = triangle_program()
    crease = program.creases[0]
    return program, crease, CutSpec(0.5, ExactAngle(1, 3)), crease.angle, layout(program).panels[1]


def test_value_types_are_slotted_and_frozen():
    _, crease, cut, angle, panel = _value_objects()
    for value in (crease, cut, angle, panel):
        assert not hasattr(value, "__dict__")
        name = dataclasses.fields(value)[0].name
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(value, name, getattr(value, name))
    # replace builds through the checking constructor
    with pytest.raises(MalformedProgramError, match="finite and positive"):
        dataclasses.replace(crease, position=-1.0)
    with pytest.raises(MalformedProgramError, match="cut position must be finite"):
        dataclasses.replace(cut, position=math.nan)
    assert dataclasses.replace(crease, layer_shift=-3).layer_shift == -3


def test_value_types_pickle_and_copy():
    for value in _value_objects():
        for again in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
            assert type(again) is type(value)
            assert again == value
            assert hash(again) == hash(value)
            assert repr(again) == repr(value)


def test_program_validation():
    c = CreaseSpec(1.0, ExactAngle(1, 2))
    # a creases value that is not iterable once raised a bare TypeError
    for creases in (None, 5, 1.5):
        with pytest.raises(MalformedProgramError, match="iterable of CreaseSpec"):
            FoldProgram(1.0, creases)
    with pytest.raises(MalformedProgramError, match="CreaseSpec instances"):
        FoldProgram(1.0, [c, "x"], presentation="truncated")
    with pytest.raises(MalformedProgramError):
        FoldProgram(width=0.0, creases=(c,), presentation="closed")
    with pytest.raises(MalformedProgramError):
        FoldProgram(width=1.0, creases=(c,), presentation="spiral")
    with pytest.raises(MalformedProgramError):
        FoldProgram(
            width=1.0,
            creases=(CreaseSpec(2.0, ExactAngle(1, 2)), CreaseSpec(1.0, ExactAngle(1, 2))),
            presentation="truncated",
        )
    # a closed loop's layer shifts must cancel at the seam
    with pytest.raises(MalformedProgramError):
        FoldProgram(width=1.0, creases=(c,), presentation="closed")
    # cuts belong to truncated programs only
    good = (
        CreaseSpec(1.0, ExactAngle(1, 3), 1),
        CreaseSpec(2.0, ExactAngle(2, 3), -1),
    )
    with pytest.raises(MalformedProgramError):
        FoldProgram(
            width=1.0, creases=good, presentation="closed", start_cut=CutSpec(0.0)
        )
    # a bare strip with no creases needs explicit ends
    with pytest.raises(MalformedProgramError):
        FoldProgram(width=1.0, creases=(), presentation="truncated")
    with pytest.raises(MalformedProgramError):
        FoldProgram(width=1.0, creases=(), presentation="closed")


def test_cut_ordering_validation():
    c = CreaseSpec(1.0, ExactAngle(1, 2))
    with pytest.raises(MalformedProgramError):
        make_truncated([c], start=CutSpec(1.5), end=CutSpec(2.0))
    with pytest.raises(MalformedProgramError):
        make_truncated([c], start=CutSpec(0.0), end=CutSpec(0.5))


def test_effective_cut_defaults():
    prog = make_truncated([CreaseSpec(3.0, ExactAngle(1, 3))])
    start, end = prog.effective_cuts()
    reach = 0.5 / math.tan(math.pi / 3)
    assert start.position == pytest.approx(3.0 - reach)
    assert end.position == pytest.approx(3.0 + reach)
    assert start.angle == ExactAngle(1, 2)
    assert prog.length() == pytest.approx(2 * reach)


# -------------------------------------------------------------------- layout


def test_zero_crease_strip_is_one_rectangle():
    prog = make_truncated([], start=CutSpec(0.0), end=CutSpec(5.0))
    lay = layout(prog)
    assert len(lay.panels) == 1
    assert_points_close(
        lay.panels[0].vertices,
        ((0.0, -0.5), (5.0, -0.5), (5.0, 0.5), (0.0, 0.5)),
    )
    assert lay.panels[0].layer == 0
    assert len(lay.centerline) == 1
    assert centerline_length(prog) == pytest.approx(5.0)
    assert centerline_length(lay) == pytest.approx(5.0)
    assert ratio(prog) == pytest.approx(5.0)


def test_single_diagonal_crease_layout():
    prog = make_truncated(
        [CreaseSpec(2.0, ExactAngle(1, 4))],
        start=CutSpec(0.0),
        end=CutSpec(4.0),
    )
    lay = layout(prog)
    assert len(lay.panels) == 2
    p1, p2 = lay.panels
    assert_points_close(p1.vertices, ((0.0, -0.5), (1.5, -0.5), (2.5, 0.5), (0.0, 0.5)))
    assert_points_close(p2.vertices, ((1.5, -0.5), (1.5, 2.0), (2.5, 2.0), (2.5, 0.5)))
    assert p1.orientation == 1
    assert p2.orientation == -1
    assert (p1.layer, p2.layer) == (0, 1)
    assert_points_close(lay.centerline[0], ((0.0, 0.0), (2.0, 0.0)))
    assert_points_close(lay.centerline[1], ((2.0, 0.0), (2.0, 2.0)))
    # edge sides of each panel stay parallel at the ribbon width
    for panel in lay.panels:
        (a, b) = panel.side(0)
        (c, d) = panel.side(2)
        cross = (b.x - a.x) * (d.y - c.y) - (b.y - a.y) * (d.x - c.x)
        assert abs(cross) < 1e-12


def test_layer_accumulation_uses_shifts():
    prog = make_truncated(
        [
            CreaseSpec(1.0, ExactAngle(1, 2), 2),
            CreaseSpec(2.0, ExactAngle(1, 2), -1),
        ],
        start=CutSpec(0.0),
        end=CutSpec(3.0),
    )
    lay = layout(prog)
    assert [p.layer for p in lay.panels] == [0, 2, 1]


def test_crossing_boundary_lines_are_rejected():
    prog = make_truncated(
        [
            CreaseSpec(1.0, ExactAngle(1, 6)),
            CreaseSpec(1.5, ExactAngle(5, 6), -1),
        ]
    )
    with pytest.raises(MalformedProgramError):
        layout(prog)


def test_closed_triangle_closes_and_round_trips():
    prog = triangle_program(width=0.2)
    assert prog.presentation == "closed"
    assert len(prog.creases) == 3
    for k, crease in enumerate(prog.creases):
        assert crease.position == pytest.approx(k + 1.0, abs=1e-12)
        assert crease.angle.fraction in (
            ExactAngle(1, 3).fraction,
            ExactAngle(2, 3).fraction,
        )
    assert [c.layer_shift for c in prog.creases] == [1, 1, -2]
    assert ratio(prog) == pytest.approx(15.0)

    lay = layout(prog)  # closure check happens here
    assert len(lay.panels) == 3
    assert ratio(lay) == pytest.approx(15.0)

    again = unfold(lay)
    assert again.width == pytest.approx(prog.width, abs=1e-12)
    assert again.presentation == "closed"
    assert again.label == "triangle"
    for c1, c2 in zip(prog.creases, again.creases):
        assert c2.position == pytest.approx(c1.position, abs=1e-12)
        assert c2.angle == c1.angle
        assert c2.layer_shift == c1.layer_shift


def test_layout_closure_is_the_presentation_or_the_centerline_gap():
    assert layout(build(FamilyId("odd_wrap", 3))).closed
    assert not layout(build(FamilyId("odd_wrap", 3), presentation="truncated")).closed
    pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    square = layout_from_centerline(pts, 0.5, [0, 1, 2, 1], closed=True)
    assert square.closed
    assert unfold(square).presentation == "closed"
    strip = layout_from_centerline(pts, 0.5, [0, 1, 2], closed=False)
    assert not strip.closed
    assert unfold(strip).presentation == "truncated"
    # a sourceless loop may miss by up to 1e-6 * max(width, 1)
    (a, b), rest = square.centerline[-1], square.centerline[:-1]
    for miss, closed in ((0.9e-6, True), (1.1e-6, False)):
        ends = rest + ((a, Point(b.x, b.y + miss)),)
        assert FoldedLayout(square.panels, ends).closed is closed
    with pytest.raises(InvalidInputError, match="layout has no panels"):
        FoldedLayout((), ()).closed


@pytest.mark.parametrize("segments", [0, 2], ids=["no-centerline", "two-segments"])
def test_sourceless_layout_with_mismatched_centerline_is_rejected(segments):
    lay = layout(build(FamilyId("odd_wrap", 3)))
    short = FoldedLayout(lay.panels, lay.centerline[:segments])
    with pytest.raises(InconsistencyError, match="panel and centerline counts disagree"):
        short.closed
    with pytest.raises(InconsistencyError, match="panel and centerline counts disagree"):
        to_svg(short)


SQUARE = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]


def _square_of_width(width):
    return layout_from_centerline(SQUARE, width, [0, 1, 2, 1], closed=True)


# each once raised a bare AttributeError, TypeError or ValueError, or, for
# a NaN or infinite width, returned panels whose corners were all NaN
@pytest.mark.parametrize("call,message", [
    (lambda: to_svg(layout(build(FamilyId("odd_wrap", 2))), None),
     "^expected a RenderOptions, got NoneType$"),
    (lambda: to_svg(layout(build(FamilyId("odd_wrap", 2))), "x"),
     "^expected a RenderOptions, got str$"),
    (lambda: FoldProgram.from_json(None), "^expected a str, got NoneType$"),
    (lambda: _square_of_width(float("nan")), "^width must be finite and positive$"),
    (lambda: _square_of_width(math.inf), "^width must be finite and positive$"),
    (lambda: _square_of_width(10**400), "^width must be finite and positive$"),
    (lambda: _square_of_width("a"), "^width must be a number, got str$"),
    (lambda: _square_of_width(True), "^width must be a number, got bool$"),
], ids=["to_svg-None", "to_svg-str", "from_json-None", "width-nan", "width-inf",
        "width-10**400", "width-str", "width-bool"])
def test_malformed_argument_names_what_it_expects(call, message):
    with pytest.raises(InvalidInputError, match=message):
        call()


def test_closed_square_closes():
    pts = [Point(0, 0), Point(2, 0), Point(2, 2), Point(0, 2)]
    lay = layout_from_centerline(pts, 0.5, [0, 1, 2, 1], closed=True)
    prog = unfold(lay)
    assert [c.layer_shift for c in prog.creases] == [1, 1, -1, -1]
    placed = layout(prog)
    assert ratio(placed) == pytest.approx(16.0)


def test_closure_error_reports_misfit():
    prog = triangle_program()
    bad = FoldProgram(
        width=prog.width,
        creases=(
            prog.creases[0],
            CreaseSpec(
                prog.creases[1].position + 1e-3,
                prog.creases[1].angle,
                prog.creases[1].layer_shift,
            ),
            prog.creases[2],
        ),
        presentation="closed",
        label=prog.label,
    )
    with pytest.raises(ClosureError):
        layout(bad)


def test_truncated_round_trip_from_layout():
    prog = make_truncated(
        [
            CreaseSpec(2.0, ExactAngle(1, 4), 1),
            CreaseSpec(3.0, ExactAngle(3, 4), 2),
            CreaseSpec(4.5, ExactAngle(1, 3), -1),
        ],
        width=0.8,
        start=CutSpec(0.0, ExactAngle(1, 2)),
        end=CutSpec(5.0, ExactAngle(2, 5)),
    )
    lay = layout(prog)
    assert len(lay.panels) == 4
    again = unfold(lay)
    assert again.presentation == "truncated"
    assert again.width == pytest.approx(0.8, abs=1e-12)
    assert again.start_cut.position == 0.0
    assert again.start_cut.angle == ExactAngle(1, 2)
    assert again.end_cut.position == pytest.approx(5.0, abs=1e-12)
    assert again.end_cut.angle == ExactAngle(2, 5)
    for c1, c2 in zip(prog.creases, again.creases):
        assert c2.position == pytest.approx(c1.position, abs=1e-12)
        assert c2.angle == c1.angle
        assert c2.layer_shift == c1.layer_shift


def test_unfold_rejects_inconsistent_widths():
    prog = make_truncated([], start=CutSpec(0.0), end=CutSpec(5.0))
    lay = layout(prog)
    good = lay.panels[0]
    skewed = Panel(
        (good.vertices[0], good.vertices[1], Point(5.0, 0.9), good.vertices[3]),
        good.layer,
        good.index,
    )
    bad = FoldedLayout((skewed,), lay.centerline, None)
    with pytest.raises(InconsistencyError):
        unfold(bad)


def test_unfold_positions_are_the_fsum_prefixes_of_the_lengths():
    # 3200 panels: unfold sums the lengths once, where fsum over every
    # prefix would be quadratic, and must still give fsum's floats
    lay = layout(build(FamilyId("odd_wrap", 1600), presentation="truncated"))
    assert len(lay.panels) == 3200
    lengths = [math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in lay.centerline]
    want = [math.fsum(lengths[:k]) for k in range(1, len(lengths) + 1)]
    prog = unfold(lay)
    assert [c.position for c in prog.creases] == want[:-1]
    assert prog.end_cut.position == want[-1]


def test_unfold_still_checks_that_panels_are_strips():
    # the truncated strip drifts off one width with no closure to catch it
    lay = layout(build(FamilyId("odd_wrap", 3000), presentation="truncated"))
    with pytest.raises(InconsistencyError, match="^panel 4071 edge sides are not parallel$"):
        unfold(lay)


def ulp_steps(theta, count):
    """theta with the ``count`` floats on either side of it, in order."""
    below, above = [theta], [theta]
    for _ in range(count):
        below.append(math.nextafter(below[-1], 0.0))
        above.append(math.nextafter(above[-1], 4.0))
    return below[::-1] + above[1:]


def test_unfold_angle_memo_snaps_as_from_float_does():
    # near k/n up to twice from_float's tolerance either way, the memoized
    # angle must be from_float's, with the memo already holding k/n's
    # nearest neighbours of denominator up to 10**4
    rng = random.Random(1011)
    fractions = [(1, 2), (1, 3), (2, 7), (1, 1000), (2, 1001), (999, 1001), (600, 1201),
                 (1234, 9999), (1, 10000), (9999, 10000)]
    fractions += [(q, 2 * q + 1) for q in (2, 7, 60)] + [(1, 2 * q + 1) for q in (2, 7, 60)]
    for _ in range(120):
        n = rng.randint(2, 10**4)
        k = rng.randint(1, n - 1)
        g = math.gcd(k, n)
        fractions.append((k // g, n // g))
    for k, n in fractions:
        memo = farey_memo(k, n)
        meant = k / n * math.pi
        tol = 1e-11 * min(1.0, (1000.0 / n) ** 2)
        for factor in (0.0, 0.5, -0.5, 0.999, -0.999, 1.0, -1.0, 1.001, -1.001, 2.0, -2.0):
            # at the edge, ulp steps carry the measured angle across the test
            thetas = ulp_steps(meant + factor * tol, 4 if abs(factor) == 1.0 else 0)
            for theta in thetas:
                memoized, oracle = boundary_outcomes(theta, memo)
                assert memoized == oracle, (k, n, factor, theta)
            if abs(factor) == 1.0:
                measured = [math.atan2(math.sin(t), math.cos(t)) for t in thetas]
                assert {abs(meant - m) <= tol for m in measured} == {True, False}
        assert (k, n) in [(num, den) for num, den, _, _ in memo]
    # generic angles, as the shorts' creases give, snap past 10**4 and
    # never enter the memo
    memo = farey_memo(1, 3)
    assert len(memo) == 2
    shorts = [build(FamilyId("short_52"), epsilon=1e-3), build(FamilyId("short_72"), epsilon=3e-3)]
    for crease in [c for program in shorts for c in program.creases]:
        memoized, oracle = boundary_outcomes(crease.angle.radians, memo)
        assert memoized == oracle
    for _ in range(200):
        memoized, oracle = boundary_outcomes(rng.uniform(1e-6, math.pi - 1e-6), memo)
        assert memoized == oracle
    assert len(memo) == 2
    # a full memo takes no more entries and still snaps as from_float does
    memo = []
    for den in range(3, 40):
        memoized, oracle = boundary_outcomes(math.pi / den, memo)
        assert memoized == oracle == ExactAngle(1, den)
    assert len(memo) == 16


def test_prefix_sums_match_fsum_on_wide_and_non_finite_values():
    rng = random.Random(1600)
    cases = [
        [],
        [0.0, 0.0],
        [0.1] * 100,
        [1e308, 1e-308, 5e-324, 1.0],
        [1.0, math.inf, 2.0],
        [1.0, math.nan, 2.0, math.inf],
        [abs(rng.gauss(0, 1)) * 2.0 ** rng.randint(-1070, 1000) for _ in range(300)],
    ]
    for values in cases:
        want = [math.fsum(values[:k]) for k in range(1, len(values) + 1)]
        # by repr, so that nan equals nan and the sign of zero counts
        assert [repr(x) for x in _prefix_sums(values)] == [repr(x) for x in want]


def test_open_centerline_builder_round_trips():
    pts = [Point(0, 0), Point(3, 0), Point(3, 2)]
    lay = layout_from_centerline(pts, 0.4, [0, 1], closed=False)
    prog = unfold(lay)
    assert len(prog.creases) == 1
    assert prog.creases[0].position == pytest.approx(3.0, abs=1e-12)
    assert prog.creases[0].angle in (ExactAngle(1, 4), ExactAngle(3, 4))
    assert prog.length() == pytest.approx(5.0, abs=1e-12)
    placed = layout(prog)
    assert len(placed.panels) == 2


def test_crease_line_lost_to_rounding_is_malformed():
    # at position 1e17, (xb + cos) - xb rounds to 0 for the angle pi/1e17,
    # whose sine is 3e-17, so no crease line is left to reflect across;
    # layout once raised InvalidInputError about two points here
    prog = make_truncated([CreaseSpec(1e17, ExactAngle(1, 10**17))])
    with pytest.raises(MalformedProgramError, match=r"crease 0 at position 1e\+17"):
        layout(prog)


# ---------------------------------------------------------------------- JSON


def test_json_round_trip_and_determinism():
    prog = triangle_program()
    text = prog.to_json()
    assert text == prog.to_json()
    again = FoldProgram.from_json(text)
    assert again.width == prog.width
    assert again.presentation == "closed"
    assert again.label == "triangle"
    assert again.creases == prog.creases
    assert FoldProgram.from_json(again.to_json()) == again


def test_json_round_trip_with_cuts_and_weave():
    prog = make_truncated(
        [CreaseSpec(2.0, ExactAngle(1, 4), 3)],
        width=0.75,
        start=CutSpec(0.0, ExactAngle(1, 2)),
        end=CutSpec(3.0, ExactAngle(1, 3)),
        weave=WeaveRule("torus"),
    )
    again = FoldProgram.from_json(prog.to_json())
    assert again == prog
    explicit = FoldProgram(
        width=1.0,
        creases=(
            CreaseSpec(1.0, ExactAngle(1, 3), 1),
            CreaseSpec(2.0, ExactAngle(2, 3), -1),
        ),
        presentation="closed",
        weave=WeaveRule("explicit", ((0, 1, 1),)),
    )
    again = FoldProgram.from_json(explicit.to_json())
    assert again.weave == explicit.weave


def test_json_rejects_unsorted_creases():
    prog = triangle_program()
    doc = json.loads(prog.to_json())
    doc["creases"][0], doc["creases"][1] = doc["creases"][1], doc["creases"][0]
    with pytest.raises(MalformedProgramError, match="crease positions must be strictly increasing"):
        FoldProgram.from_json(json.dumps(doc))


def test_json_rejects_missing_and_bad_fields():
    prog = triangle_program()
    doc = json.loads(prog.to_json())
    del doc["width"]
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json(json.dumps(doc))
    doc = json.loads(prog.to_json())
    doc["creases"][0]["angle_den"] = -7
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json(json.dumps(doc))
    doc = json.loads(prog.to_json())
    doc["creases"][0]["layer_shift"] = 0
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json(json.dumps(doc))
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json("not json at all")
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json("[1, 2, 3]")
    # json.loads raises RecursionError, no ValueError, on this nesting
    with pytest.raises(MalformedProgramError, match="invalid JSON"):
        FoldProgram.from_json("[" * 200000 + "]" * 200000)


CREASE_FIELDS = ("position", "angle_num", "angle_den", "layer_shift")


@pytest.mark.parametrize("gone", list(itertools.combinations(CREASE_FIELDS, 2)))
def test_json_names_the_first_missing_field(gone):
    doc = json.loads(make_truncated([CreaseSpec(1.0, ExactAngle(1, 2))]).to_json())
    for key in gone:
        del doc["creases"][0][key]
    with pytest.raises(MalformedProgramError, match="crease missing field %r$" % gone[0]):
        FoldProgram.from_json(json.dumps(doc))
    if "layer_shift" not in gone:
        doc = json.loads(make_truncated([CreaseSpec(1.0, ExactAngle(1, 2))],
                                        start=CutSpec(0.0)).to_json())
        for key in gone:
            del doc["start_cut"][key]
        with pytest.raises(MalformedProgramError,
                           match="start_cut missing field %r$" % gone[0]):
            FoldProgram.from_json(json.dumps(doc))


def test_json_rejects_integers_past_the_float_range():
    # float() of such an int once raised OverflowError out of from_json
    doc = json.loads(triangle_program().to_json())
    doc["width"] = 10**400
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json(json.dumps(doc))
    doc = json.loads(triangle_program().to_json())
    doc["creases"][0]["position"] = 10**400
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json(json.dumps(doc))
    with pytest.raises(MalformedProgramError):
        CutSpec(-(10**400))
    # an angle whose radians round to 0.0 once divided layout by zero
    doc = json.loads(triangle_program().to_json())
    doc["creases"][0]["angle_den"] = 10**400
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json(json.dumps(doc))


@pytest.mark.parametrize("cut", ["start_cut", "end_cut"])
@pytest.mark.parametrize("malform", [
    pytest.param(lambda entry: dict(entry, angle_den="2"), id="2"),
    pytest.param(lambda entry: dict(entry, angle_den=None), id="None"),
    pytest.param(lambda entry: dict(entry, angle_den=True), id="True"),
    # a whole cut that is no cut object
    pytest.param(lambda entry: {"angle_num": 1, "angle_den": 2}, id="no-position"),
    pytest.param(lambda entry: [1, 2], id="list"),
    pytest.param(lambda entry: "x", id="string"),
])
def test_json_rejects_non_integer_cut_angles(cut, malform):
    doc = json.loads(make_truncated(
        [CreaseSpec(1.0, ExactAngle(1, 3), 1)],
        start=CutSpec(0.0, ExactAngle(1, 2)),
        end=CutSpec(2.0, ExactAngle(1, 2)),
    ).to_json())
    doc[cut] = malform(doc[cut])
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json(json.dumps(doc))


def test_weave_rule_validation():
    with pytest.raises(MalformedProgramError):
        WeaveRule("braided")
    with pytest.raises(MalformedProgramError, match="only valid in explicit mode"):
        WeaveRule("torus", ((0, 1, 1),))
    with pytest.raises(MalformedProgramError):
        WeaveRule("explicit")
    with pytest.raises(MalformedProgramError):
        WeaveRule("explicit", ((0, 0, 1),))
    with pytest.raises(MalformedProgramError):
        WeaveRule("explicit", ((0, 1, 2),))
    with pytest.raises(MalformedProgramError):
        WeaveRule("explicit", ((0, 1),))
    with pytest.raises(MalformedProgramError):
        WeaveRule("explicit", (5,))
    with pytest.raises(MalformedProgramError):
        WeaveRule("explicit", 5)


@pytest.mark.parametrize("mode", ["alternating", "layers"])
def test_removed_weave_modes_are_malformed(mode):
    assert WEAVE_MODES == ("torus", "explicit")
    with pytest.raises(MalformedProgramError, match="unknown weave mode %r" % mode):
        WeaveRule(mode)
    doc = json.loads(build(FamilyId("star_polygon", 7)).to_json())
    assert doc["weave"] == "torus"
    doc["weave"] = mode
    with pytest.raises(MalformedProgramError, match="unknown weave mode %r" % mode):
        FoldProgram.from_json(json.dumps(doc))


@pytest.mark.parametrize("pairs", [
    ((0, 2, 1), (0, 2, -1)),
    ((0, 2, -1), (0, 2, 1)),
    ((0, 2, 1), (2, 0, 1)),
    ((2, 0, 1), (0, 2, 1)),
])
def test_weave_rule_rejects_contradictory_pairs(pairs):
    with pytest.raises(MalformedProgramError, match="contradicts an earlier pair"):
        WeaveRule("explicit", pairs)


def test_weave_rule_accepts_a_pair_repeated_with_one_meaning():
    pairs = ((0, 2, 1), (2, 0, -1), (0, 2, 1))
    assert WeaveRule("explicit", pairs).pairs == pairs


def test_weave_rule_senses_key_each_pair_lower_segment_first():
    rule = WeaveRule("explicit", ((2, 0, 1), (0, 3, 1), (0, 2, -1), (5, 4, -1)))
    assert rule.senses == {(0, 2): -1, (0, 3): 1, (4, 5): 1}
    assert WeaveRule("torus").senses == {}
    # derived from the pairs, so outside ==, hash, repr and match_args
    same = WeaveRule("explicit", rule.pairs)
    assert same == rule and hash(same) == hash(rule)
    assert repr(rule) == "WeaveRule(mode='explicit', pairs=%r)" % (rule.pairs,)
    assert WeaveRule.__match_args__ == ("mode", "pairs")


@pytest.mark.parametrize("pairs", [[[0, 2, 1], [0, 2, -1]], [[0, 2, 1], [2, 0, 1]]])
def test_contradictory_weave_pairs_in_json(pairs):
    doc = json.loads(build(FamilyId("odd_wrap", 2)).to_json())
    doc["weave"] = {"mode": "explicit", "pairs": pairs}
    with pytest.raises(MalformedProgramError, match="contradicts an earlier pair"):
        FoldProgram.from_json(json.dumps(doc))


@pytest.mark.parametrize("pairs", [[[0, 1]], [5], [[0, 1, 1, 1]], ["abc"], [None]])
def test_malformed_weave_pairs_in_json(pairs):
    doc = {"width": 1.0, "presentation": "closed", "creases": [],
           "weave": {"mode": "explicit", "pairs": pairs}}
    with pytest.raises(MalformedProgramError):
        FoldProgram.from_json(json.dumps(doc))


def test_closed_round_trip_panel_shapes_with_odd_crease_count():
    # an odd crease count closes the loop with a reflection, so the seam
    # boundary shows itself to panel 0 at the supplementary angle; the
    # replayed layout must reproduce the direct panels shape for shape
    radius = 1.0 / (2.0 * math.sin(math.pi / 5))
    pts = [
        Point(radius * math.cos(4.0 * math.pi * k / 5), radius * math.sin(4.0 * math.pi * k / 5))
        for k in range(5)
    ]
    width = math.cos(math.pi / 10)
    direct = layout_from_centerline(pts, width, [0, 3, 1, 4, 2], closed=True)
    replay = layout(unfold(direct))
    assert len(replay.panels) == len(direct.panels)
    for pd, pr in zip(direct.panels, replay.panels):
        for k in range(4):
            (a1, b1), (a2, b2) = pd.side(k), pr.side(k)
            len_direct = math.hypot(b1[0] - a1[0], b1[1] - a1[1])
            len_replay = math.hypot(b2[0] - a2[0], b2[1] - a2[1])
            assert abs(len_direct - len_replay) < 1e-9
