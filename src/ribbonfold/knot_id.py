"""Knot diagram extraction and Alexander-polynomial certification.

The folded centerline of a closed program is a closed polygonal curve.
Its transverse self-intersections, together with over/under decisions
read from the panel stacking, form a knot diagram.  The diagram's
Alexander polynomial is computed exactly from the crossing/arc matrix
and compared, by ``certification_report``, with the classical torus-knot
polynomial or with the 7_4 polynomial the family table holds, to certify
that a construction really ties the knot it claims.  A diagram that is
exactly the standard closed-braid diagram of the expected torus knot, or
its mirror image (``braid.torus_handedness``), is certified by that match,
and its polynomial is the torus knot's without any elimination.
"""

from __future__ import annotations

import math
import sys
from collections.abc import Mapping
from fractions import Fraction
from numbers import Real
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .braid import torus_handedness
from .constructions import _FAMILIES, FamilyId
from .determinant import _pstrip, _unit_pivot_det
from .errors import (
    DegenerateDiagramError,
    InconsistencyError,
    InvalidDiagramError,
    InvalidInputError,
    LayeringInconsistencyError,
    _expect_type,
    _Record,
)
from .fold_core import FoldProgram, FoldedLayout, Point, layout

DEFAULT_PERTURBATION_SCALE = 1e-3
_DEGREE_LIMIT = 10**6


# ------------------------------------------------------------ polynomials


class LaurentPolynomial:
    """Integer Laurent polynomial in one variable t, kept up to units +-t^k.

    Alexander polynomials are defined only up to units +-t^k, so only
    the normalized representative is stored: ascending coefficients with
    lowest exponent 0 and a positive constant term.  Equality therefore
    means "equal up to +-t^k".  ``coefficients`` maps int exponents to int
    coefficients, whose nonzero terms may span at most 10**6 exponents;
    None gives the zero polynomial.
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=None):
        terms = {}
        if coefficients is not None:
            if not isinstance(coefficients, Mapping):
                raise InvalidInputError("coefficients must be a mapping of exponent to coefficient")
            for exp, c in coefficients.items():
                if isinstance(exp, bool) or not isinstance(exp, int):
                    raise InvalidInputError("exponents must be integers")
                if isinstance(c, bool) or not isinstance(c, int):
                    raise InvalidInputError("coefficients must be integers")
                if c != 0:
                    terms[exp] = c
        self._coeffs = ()
        if terms:
            low, high = min(terms), max(terms)
            # the dense representative has one slot per exponent in the span
            if high - low > _DEGREE_LIMIT:
                raise InvalidInputError("exponent span exceeds %d" % _DEGREE_LIMIT)
            coeffs = [0] * (high - low + 1)
            for exp, c in terms.items():
                coeffs[exp - low] = c
            self._coeffs = self._from_dense(coeffs)._coeffs

    @classmethod
    def _from_dense(cls, coeffs: Sequence[int]) -> "LaurentPolynomial":
        """The polynomial of the ascending int coefficients ``coeffs``,
        normalized: the zeros at both ends cut, the span checked, and the
        lowest coefficient made positive."""
        high = len(coeffs)
        while high and not coeffs[high - 1]:
            high -= 1
        low = 0
        while low < high and not coeffs[low]:
            low += 1
        if high - low - 1 > _DEGREE_LIMIT:
            raise InvalidInputError("exponent span exceeds %d" % _DEGREE_LIMIT)
        kept = coeffs[low:high]
        poly = object.__new__(cls)
        poly._coeffs = tuple(kept) if not kept or kept[0] > 0 else tuple(-c for c in kept)
        return poly

    @property
    def coefficients(self) -> Dict[int, int]:
        return {e: c for e, c in enumerate(self._coeffs) if c}

    @classmethod
    def from_list(cls, coeffs: Sequence[int]) -> "LaurentPolynomial":
        message = "coefficients must be a sequence of integers"
        # a mapping would give its keys and bytes their values
        if isinstance(coeffs, (Mapping, bytes, bytearray, memoryview)):
            raise InvalidInputError(message)
        try:
            coeffs = list(coeffs)
        except TypeError:
            raise InvalidInputError(message) from None
        if any(isinstance(c, bool) or not isinstance(c, int) for c in coeffs):
            raise InvalidInputError("coefficients must be integers")
        return cls._from_dense(coeffs)

    def is_zero(self) -> bool:
        return not self._coeffs

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def mirror(self) -> "LaurentPolynomial":
        """The polynomial at 1/t (the Alexander polynomial of the mirror)."""
        return LaurentPolynomial._from_dense(self._coeffs[::-1])

    def evaluate(self, x):
        """Exact value at x (int or Fraction), an int when it is integral."""
        if isinstance(x, bool) or not isinstance(x, (int, Fraction)):
            raise InvalidInputError("a polynomial evaluates at an int or a Fraction")
        value = 0
        for c in reversed(self._coeffs):
            value = value * x + c
        return int(value) if value.denominator == 1 else value

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        parts = []
        for e in range(len(self._coeffs) - 1, -1, -1):
            c = self._coeffs[e]
            if not c:
                continue
            mag = abs(c)
            if e == 0:
                term = str(mag)
            elif e == 1:
                term = "t" if mag == 1 else "%d*t" % mag
            else:
                term = "t^%d" % e if mag == 1 else "%d*t^%d" % (mag, e)
            if not parts:
                parts.append(term if c > 0 else "-" + term)
            else:
                parts.append(("+ " if c > 0 else "- ") + term)
        return " ".join(parts)

    def __repr__(self) -> str:
        return "LaurentPolynomial(%r)" % (self.coefficients,)


# ------------------------------------------------------------ diagram types


class Crossing(NamedTuple):
    """One transverse double point of the diagram."""

    id: int
    over_arc: int
    under_in_arc: int
    under_out_arc: int
    sign: int


class KnotDiagram(_Record):
    """A knot diagram, built from its signed Gauss code alone.

    ``gauss`` lists, in strand order, triples (crossing id, is_over,
    sign); each crossing id appears exactly twice, once over and once
    under, with the same sign +-1 both times.  Ids and signs are ints;
    is_over is a bool, or the int 0 or 1, kept as a bool.  Construction
    rejects any other code with InvalidDiagramError, and in the same walk
    derives ``crossings``, the arc incidences of every crossing in id
    order.  A knot diagram has as many arcs as crossings: arc k runs from
    the k-th under-passage (exclusive) to the next one (inclusive),
    wrapping around the strand.
    """

    _fields = ("gauss", "crossings")
    __match_args__ = ("gauss",)
    gauss: Tuple[Tuple[int, bool, int], ...]
    crossings: Tuple[Crossing, ...]

    def __init__(self, gauss: Sequence[Tuple[int, bool, int]]) -> None:
        entries = []
        # per crossing id, twice the arc before its over-passage and twice
        # the out-arc of its under-passage (whose in-arc is one less), each
        # plus 1 for a positive sign
        over_arc = {}
        under = {}
        # the strand is on arc k - 1 before the k-th under-passage, and on
        # the last arc, -1 mod the final count of under-passages, before
        # the first
        arc = -1
        passed = 0
        try:
            code = iter(gauss)
        except TypeError:
            raise InvalidDiagramError("a Gauss code must be an iterable of triples") from None
        for entry in code:
            try:
                cid, over, sign = entry
            except (TypeError, ValueError):
                raise InvalidDiagramError("each Gauss code entry must be a triple") from None
            # type checks, not int(), which would pass a float or a string
            if type(cid) is not int or type(sign) is not int or (sign != 1 and sign != -1):
                raise InvalidDiagramError("crossing ids must be ints, signs the ints +1 or -1")
            if over is not True and over is not False:
                if type(over) is not int or (over != 0 and over != 1):
                    raise InvalidDiagramError("over flag must be a bool, 0 or 1")
                over = over == 1
            if over:
                over_arc[cid] = arc + arc + (sign > 0)
            else:
                under[cid] = passed + passed + (sign > 0)
                arc = passed
                passed += 1
            # a tuple whose flag was a bool already is (int, bool, int)
            entries.append(entry if type(entry) is tuple and entry[1] is over
                           else (cid, over, sign))
        if not entries:
            raise InvalidDiagramError("empty Gauss code")
        # a repeated passage overwrites its first record, so the two maps
        # hold one record per entry only when no passage repeats; with the
        # same keys, each crossing then passes once over and once under
        # (which also rules out an odd length)
        if len(over_arc) + len(under) != len(entries) or over_arc.keys() != under.keys():
            raise InvalidDiagramError("every crossing must pass once over and once under")
        crossings = []
        for cid in sorted(under):
            o, u = over_arc[cid], under[cid]
            if (o ^ u) & 1:
                raise InvalidDiagramError("crossing %d has inconsistent signs" % cid)
            out_arc = u >> 1
            # tuple.__new__ skips the Python-level call of Crossing._make
            crossings.append(tuple.__new__(Crossing, (
                cid, (o >> 1) % passed, (out_arc - 1) % passed, out_arc, 1 if u & 1 else -1)))
        self.__dict__.update(gauss=tuple(entries), crossings=tuple(crossings))

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


# --------------------------------------------------------------- Alexander


def alexander_polynomial(diagram: KnotDiagram) -> LaurentPolynomial:
    """Normalized Alexander polynomial of a knot diagram.

    Builds the n x n crossing/arc matrix over Z[t] (one row per crossing,
    one column per arc), deletes the last crossing's row and that row's
    own unit column, and takes the determinant of the minor exactly.  Each
    crossing row has at most three entries, one of them a constant -1 at
    the under-out arc (positive crossing) or +1 at the under-in arc
    (negative crossing), so sparse elimination on these unit pivots
    removes nearly every row without division.  The few rows left with no
    unit pivot go to fraction-free (Bareiss) elimination over Z[t].
    Deleting the row's own unit column leaves every other column its unit
    pivot; every first minor gives the same polynomial up to +-t^k.
    """
    _expect_type(diagram, KnotDiagram)
    *kept, deleted = diagram.crossings
    col = deleted.under_out_arc if deleted.sign > 0 else deleted.under_in_arc
    minor: List[Dict[int, List[int]]] = []
    for c in kept:
        # (arc, constant, t) coefficients; arcs may coincide, so sum them
        if c.sign > 0:
            terms = ((c.over_arc, 1, -1), (c.under_in_arc, 0, 1), (c.under_out_arc, -1, 0))
        else:
            terms = ((c.over_arc, -1, 1), (c.under_in_arc, 1, 0), (c.under_out_arc, 0, -1))
        entries: Dict[int, List[int]] = {}
        for arc, c0, c1 in terms:
            if arc != col:
                e = entries.setdefault(arc, [0, 0])
                e[0] += c0
                e[1] += c1
        minor.append({arc: _pstrip(e) for arc, e in entries.items() if any(e)})
    det = _unit_pivot_det(minor, [j for j in range(diagram.crossing_count) if j != col])
    dense = [0] * (det[-1][0] + 1 if det else 0)
    for e, c in det:
        dense[e] = c
    poly = LaurentPolynomial._from_dense(dense)
    if poly.is_zero():
        raise InvalidDiagramError("Alexander determinant vanished; not a knot diagram")
    return poly


def torus_alexander(p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial of the (p, q) torus knot.

    The exact quotient (t^{pq} - 1)(t - 1) / ((t^p - 1)(t^q - 1)) is
    (1 - t) times the sum of t^s over the semigroup generated by p and q.
    Every s at or past c = (p-1)(q-1) lies in it, so the polynomial is t^c
    plus t^s - t^(s+1) for each s = a*p + b*q < c, and each such s is
    a*p + b*q for exactly one pair a, b >= 0, in which a*p <= s < c.
    Either parameter equal to 1 gives c = 0 and the unknot polynomial 1.
    The degree c may be at most 10**6: a diagram with that polynomial has
    more crossings than any this module extracts.
    """
    for v in (p, q):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise InvalidInputError("torus parameters must be integers >= 1")
    if math.gcd(p, q) != 1:
        raise InvalidInputError("torus knot parameters must be coprime")
    c = (p - 1) * (q - 1)
    if c > _DEGREE_LIMIT:
        raise InvalidInputError("torus knot degree (p-1)(q-1) exceeds %d" % _DEGREE_LIMIT)
    coeffs = [0] * (c + 1)
    coeffs[c] = 1
    for ap in range(0, c, p):
        for s in range(ap, c, q):
            coeffs[s] += 1
            coeffs[s + 1] -= 1
    return LaurentPolynomial._from_dense(coeffs)


# -------------------------------------------------------------- extraction


def _canonical_line(a: Point, ux: float, uy: float) -> Tuple[float, float, float]:
    """Line through a with direction u as (nx, ny, d), sign-canonical."""
    nx, ny = -uy, ux
    norm = math.hypot(nx, ny)
    nx /= norm
    ny /= norm
    if nx < 0 or (nx == 0 and ny < 0):
        nx, ny = -nx, -ny
    return nx, ny, nx * a.x + ny * a.y


# directions closer than this mod pi always count as parallel candidates;
# it holds every pair that the collinear-group test (|sin| < 1e-9) or the
# crossing test (|denom| < 1e-12 * norm) calls parallel
_DIRECTION_WINDOW = 1e-6


def _parallel_partners(dxs: List[float], dys: List[float]) -> List[int]:
    """Per segment, a bit mask of the others whose direction agrees mod pi.

    Directions (dxs[k], dys[k]) are sorted on their angle mod pi and each
    is paired with its neighbours within ``_DIRECTION_WINDOW``, walking on
    past pi so that angles just above 0 meet angles just below pi.
    """
    m = len(dxs)
    thetas = [a % math.pi for a in map(math.atan2, dys, dxs)]
    # a stable sort: equal angles stay in index order
    order = sorted(range(m), key=thetas.__getitem__)
    partners = [0] * m
    for r, k in enumerate(order):
        for step in range(1, m):
            j = order[(r + step) % m]
            if thetas[j] + (math.pi if r + step >= m else 0.0) - thetas[k] > _DIRECTION_WINDOW:
                break
            partners[k] |= 1 << j
            partners[j] |= 1 << k
    return partners


def _collinear_groups(centerline, scale: float, partners=None) -> List[List[int]]:
    """Indices of segments sharing a supporting line, in strand order.

    Each segment joins the first group, in order of creation, whose
    leading segment it matches; only ``partners`` (sorted here if not
    given) can match, so a segment with none gets no line.
    """
    if partners is None:
        partners = _parallel_partners(*zip(*[(b.x - a.x, b.y - a.y) for a, b in centerline]))
    keys: Dict[int, Tuple[float, float, float]] = {}
    # groups by leading segment, in order of creation
    groups: Dict[int, List[int]] = {}
    leaders = 0
    tol_d = 1e-9 * max(scale, 1.0)
    for i, mask in enumerate(partners):
        if not mask:
            continue
        a, b = centerline[i]
        ux, uy = b.x - a.x, b.y - a.y
        norm = math.hypot(ux, uy)
        nx, ny, d = keys[i] = _canonical_line(a, ux / norm, uy / norm)
        mask &= leaders
        while mask:
            low = mask & -mask
            mask ^= low
            lead = low.bit_length() - 1
            gx, gy, gd = keys[lead]
            if abs(nx * gy - ny * gx) >= 1e-9:
                continue
            # the sign canonicalization can flip on noise-level direction
            # components, so match the offset against either orientation
            dd = d - gd if nx * gx + ny * gy > 0 else d + gd
            if abs(dd) < tol_d:
                groups[lead].append(i)
                break
        else:
            groups[i] = [i]
            leaders |= 1 << i
    return [g for g in groups.values() if len(g) > 1]


def _perturbed_polyline(centerline, groups: List[List[int]], epsilon: float):
    """Displace collinear runs apart and re-intersect consecutive lines.

    Returns the new vertex list (one per segment start).  Segments not
    in any of the collinear ``groups`` keep their exact supporting lines,
    so with no groups the vertices do not depend on ``epsilon``.
    """
    m = len(centerline)
    vectors = [(b.x - a.x, b.y - a.y) for a, b in centerline]
    bases = [a for a, _ in centerline]
    for group in groups:
        g = len(group)
        # displace every member along the first member's normal so the
        # separation is consistent whatever each segment's travel sense
        v0x, v0y = vectors[group[0]]
        n0 = math.hypot(v0x, v0y)
        nx, ny, _ = _canonical_line(bases[group[0]], v0x / n0, v0y / n0)
        for rank, idx in enumerate(group):
            offset = epsilon * (rank - 0.5 * (g - 1))
            a = bases[idx]
            bases[idx] = Point(a.x + offset * nx, a.y + offset * ny)
    lines = []
    for base, (ux, uy) in zip(bases, vectors):
        norm = math.hypot(ux, uy)
        lines.append((base, ux / norm, uy / norm))
    vertices = []
    for k in range(m):
        (pa, ax, ay) = lines[(k - 1) % m]
        (pb, bx, by) = lines[k]
        denom = ax * by - ay * bx
        if abs(denom) < 1e-9:
            raise DegenerateDiagramError(
                "consecutive centerline segments are parallel at vertex %d" % k
            )
        t = ((pb.x - pa.x) * by - (pb.y - pa.y) * bx) / denom
        vertices.append(Point(pa.x + t * ax, pa.y + t * ay))
    # displaced too far: a segment direction must never flip
    for k in range(m):
        a = vertices[k]
        b = vertices[(k + 1) % m]
        ux, uy = vectors[k]
        if (b.x - a.x) * ux + (b.y - a.y) * uy <= 0:
            raise DegenerateDiagramError("perturbation collapsed segment %d" % k)
    if not all(math.isfinite(v.x) and math.isfinite(v.y) for v in vertices):
        raise DegenerateDiagramError("perturbed centerline is not finite")
    return vertices


def _candidate_masks(xs, ys, dxs, dys, scale: float, tol_param: float, partners) -> List[int]:
    """Per segment i, a bit mask of the segments j the crossing test must
    pair it with, bit b standing for j = i + 2 + b.

    Segment k runs from (xs[k], ys[k]) by (dxs[k], dys[k]).  A superset of
    the pairs that can cross, touch or coincide: those whose bounding boxes,
    grown by the ``tol_param`` extent and a margin, share a cell of a uniform
    grid, and the parallel ``partners``.  Outside the direction window
    |sin| >= 1e-6, so rounding moves a computed crossing by under 1e-8 *
    scale, far inside the margin.  Grid cells hold bit masks of segments.
    """
    m = len(xs)
    margin = 1e-6 * max(scale, 1.0)
    side = math.isqrt(m) + 1
    last = side - 1

    def spans(starts, steps):
        # first and last cell of each box along one axis; a coordinate that
        # overflows to inf or nan goes to the last cell, keeping the map monotone
        lo, hi = [], []
        for a, d in zip(starts, steps):
            e = tol_param * abs(d) + margin
            b = a + d
            lo.append((b if b < a else a) - e)
            hi.append((b if b > a else a) + e)
        origin = min(lo)
        size = (max(hi) - origin) / side
        return [[int(c) if c < last else last for c in [(v - origin) / size for v in ends]]
                for ends in (lo, hi)]

    grid = [0] * (side * side)
    covers = []
    bit = 1
    for cx0, cx1, cy0, cy1 in zip(*spans(xs, dxs), *spans(ys, dys)):
        if cx0 == cx1 and cy0 == cy1:
            cells = (cx0 * side + cy0,)
        else:
            cells = [cx * side + cy for cx in range(cx0, cx1 + 1) for cy in range(cy0, cy1 + 1)]
        for c in cells:
            grid[c] |= bit
        covers.append(cells)
        bit <<= 1
    masks = []
    for i, cells in enumerate(covers):
        mask = partners[i]
        for c in cells:
            mask |= grid[c]
        # neighbours and the closing pair (0, m - 1) are never tested
        masks.append(mask >> (i + 2))
    masks[0] &= ~(1 << (m - 3))
    return masks


def _find_crossings(vertices, scale: float, partners=None):
    """Transverse interior intersections of the closed polyline.

    ``vertices`` are finite with no two consecutive ones equal, and
    ``scale`` is their largest coordinate magnitude; ``partners`` are sorted
    here if not given.  Returns the segment vectors as lists (dxs, dys),
    and the hits in ascending segment-pair order as six parallel lists
    (i, t, j, s, x, y): hit h crosses segment i[h] at parameter t[h] with
    segment j[h] at parameter s[h], at the point (x[h], y[h]).
    """
    xs = [v[0] for v in vertices]
    ys = [v[1] for v in vertices]
    dxs = [b - a for a, b in zip(xs, xs[1:] + xs[:1])]
    dys = [b - a for a, b in zip(ys, ys[1:] + ys[:1])]
    if partners is None:
        partners = _parallel_partners(dxs, dys)
    tol_param = 1e-9
    t_lo, t_hi, inner_hi = -tol_param, 1 + tol_param, 1 - tol_param
    tol_point = 1e-12 * max(scale, 1.0)
    lengths = list(map(math.hypot, dxs, dys))
    hits = his, hts, hjs, hss, hxs, hys = [], [], [], [], [], []
    for i, mask in enumerate(_candidate_masks(xs, ys, dxs, dys, scale, tol_param, partners)):
        axi, ayi, dix, diy, length_i = xs[i], ys[i], dxs[i], dys[i], lengths[i]
        # bit b of the mask is segment i + 2 + b; shifting past each bit
        # found keeps the walk off the full-width int that clearing it copies
        j = i + 1
        while mask:
            step = (mask & -mask).bit_length()
            mask >>= step
            j += step
            djx, djy = dxs[j], dys[j]
            denom = dix * djy - diy * djx
            norm = length_i * lengths[j]
            rx, ry = xs[j] - axi, ys[j] - ayi
            if abs(denom) < 1e-12 * (norm if norm > 1e-30 else 1e-30):
                # parallel tracks never cross; a coincident overlap is
                # degenerate
                if abs(rx * diy - ry * dix) / length_i < tol_point:
                    raise DegenerateDiagramError(
                        "segments %d and %d remain coincident" % (i, j)
                    )
                continue
            t = (rx * djy - ry * djx) / denom
            s = (rx * diy - ry * dix) / denom
            if t < t_lo or t > t_hi or s < t_lo or s > t_hi:
                continue
            if not (tol_param < t < inner_hi and tol_param < s < inner_hi):
                raise DegenerateDiagramError(
                    "segments %d and %d touch at an endpoint" % (i, j)
                )
            his.append(i)
            hts.append(t)
            hjs.append(j)
            hss.append(s)
            hxs.append(axi + t * dix)
            hys.append(ayi + t * diy)
    for a, b in _near_hit_pairs(hxs, hys, 2 * tol_point):
        if math.hypot(hxs[a] - hxs[b], hys[a] - hys[b]) < tol_point:
            raise DegenerateDiagramError("multiple crossings coincide at one point")
    return (dxs, dys), hits


# the unit direction at angle 1 radian, which no symmetry axis of a built
# family follows
_AXIS = (math.cos(1.0), math.sin(1.0))


def _near_hit_pairs(xs: List[float], ys: List[float], reach: float) -> List[Tuple[int, int]]:
    """Pairs (a, b) of the points (xs[k], ys[k]) whose projections on
    ``_AXIS`` differ by less than ``reach``.

    A projection never lengthens a distance, so every pair of points closer
    than ``reach`` is among them, with room for rounding when ``reach`` is
    twice the distance tested.  Projecting on x alone would pair every two
    hits that share an x, as the many hits on a symmetry axis of a wrap do.
    """
    cx, cy = _AXIS
    keys = [x * cx + y * cy for x, y in zip(xs, ys)]
    order = sorted(range(len(keys)), key=keys.__getitem__)
    pairs = []
    for a, ha in enumerate(order):
        for b in range(a + 1, len(order)):
            hb = order[b]
            if keys[hb] - keys[ha] >= reach:
                break
            pairs.append((ha, hb))
    return pairs


def _decide_over(hits, layers, weave):
    """Over/under decision per crossing; returns over_is_i flags.

    ``hits`` are the parallel lists of ``_find_crossings``.  With no rule
    the higher panel layer goes over; "explicit" reads the rule's pairs;
    "torus" puts over the passage further along its own segment (t > s)
    and rejects a tie within 1e-9.  The chords of a regular star share
    one length and have their midpoints at the feet of the perpendiculars
    from the centre, so there that passage is the one bound further
    outward, which gives the standard closed-braid diagram.
    """
    his, hts, hjs, hss, _, _ = hits
    if weave is None:
        flags = []
        for i, j in zip(his, hjs):
            if layers[i] == layers[j]:
                raise LayeringInconsistencyError(
                    "segments %d and %d share layer %d at a crossing" % (i, j, layers[i])
                )
            flags.append(layers[i] > layers[j])
        return flags
    if weave.mode == "explicit":
        # every hit has i < j, the order senses are keyed in; a pair naming
        # no segment matches no hit
        senses = weave.senses
        flags = []
        for i, j in zip(his, hjs):
            s = senses.get((i, j))
            if s is None:
                raise LayeringInconsistencyError(
                    "explicit weave has no entry for segments %d and %d" % (i, j)
                )
            flags.append(s > 0)
        return flags
    flags = []
    for i, t, j, s in zip(his, hts, hjs, hss):
        if abs(t - s) < 1e-9:
            raise LayeringInconsistencyError(
                "torus rule cannot order segments %d and %d" % (i, j)
            )
        flags.append(t > s)
    return flags


def extract_diagram(
    lay: FoldedLayout,
    perturbation: Optional[float] = None,
) -> KnotDiagram:
    """Knot diagram of a closed layout's folded centerline.

    Exactly coincident collinear runs (of the built families only the
    7_4 rectangle has them) are displaced apart by ``perturbation`` along
    their shared normal before intersecting.  When there are such runs,
    the extraction is re-run at half the displacement and must produce
    the identical Gauss code, which guards against the displacement
    itself creating or destroying crossings.  With none, nothing is
    displaced and the search runs once, on the centerline's start points.
    Their polyline turns each direction by at most the widest closure gap
    over the shortest segment; under 1e-7 the direction window still holds
    the search's parallel pairs and the grid margin every other pair, so
    one direction sort serves both the group test and the search.
    """
    _expect_type(lay, FoldedLayout)
    src = lay.source
    if src is not None and src.presentation != "closed":
        raise DegenerateDiagramError("open strips do not close into a knot diagram")
    if len(lay.centerline) < 3:
        raise DegenerateDiagramError("too few segments to form a diagram")
    # each segment reads its panel's layer
    if len(lay.panels) != len(lay.centerline):
        raise InconsistencyError("panel and centerline counts disagree")
    w = lay.width
    if perturbation is None:
        perturbation = DEFAULT_PERTURBATION_SCALE * w
    # a bool is an int and a str does not compare with 0, so check the type
    # first; the float bound also keeps an int too large for a float out
    if (isinstance(perturbation, bool) or not isinstance(perturbation, Real)
            or not 0 < perturbation <= sys.float_info.max):
        raise InvalidInputError("perturbation must be a positive real")
    tol_close = 1e-6 * max(w, 1.0)
    dxs, dys, lengths = [], [], []
    scale = widest_gap = 0.0
    for k, ((ax, ay), (bx, by)) in enumerate(lay.centerline):
        px, py = lay.centerline[k - 1][1]
        gap = math.hypot(px - ax, py - ay)
        if gap > tol_close:
            raise DegenerateDiagramError("centerline is not a closed loop")
        widest_gap = max(widest_gap, gap)
        ux, uy = bx - ax, by - ay
        norm = math.hypot(ux, uy)
        # a zero length, or one that overflows while both components are
        # finite, leaves no unit direction to divide out
        if norm == 0.0 or (norm == math.inf and math.isfinite(ux) and math.isfinite(uy)):
            raise DegenerateDiagramError("segment %d has no unit direction (length %g)" % (k, norm))
        scale = max(scale, abs(ax), abs(ay))
        dxs.append(ux)
        dys.append(uy)
        lengths.append(norm)
    # past those checks a length is finite exactly when its vector is
    if not all(map(math.isfinite, lengths)):
        raise DegenerateDiagramError("perturbed centerline is not finite")
    partners = _parallel_partners(dxs, dys)
    groups = _collinear_groups(lay.centerline, scale, partners)
    shared = partners if not groups and widest_gap < 1e-7 * min(lengths) else None
    layers = [p.layer for p in lay.panels]
    weave = src.weave if src is not None else None
    first = _extract_once(lay.centerline, groups, shared, scale, layers, weave, perturbation)
    if groups:
        second = _extract_once(lay.centerline, groups, None, scale, layers, weave, perturbation / 2)
        if first.gauss != second.gauss:
            raise DegenerateDiagramError(
                "Gauss code changed under perturbation halving; displacement too large"
            )
    return first


def _extract_once(centerline, groups, partners, scale, layers, weave, epsilon) -> KnotDiagram:
    if groups:
        vertices = _perturbed_polyline(centerline, groups, epsilon)
        scale = max(max(abs(v.x), abs(v.y)) for v in vertices)
    else:
        vertices = [a for a, _ in centerline]
    (dxs, dys), hits = _find_crossings(vertices, scale, partners)
    his, hts, hjs, hss, _, _ = hits
    if not his:
        raise DegenerateDiagramError("centerline has no self-intersections")
    # passage 2h runs along segment his[h] at parameter hts[h], passage
    # 2h + 1 along hjs[h] at hss[h]; strand order, segment by segment, in
    # a stable sort on the parameter, so that passages that tie on it fall
    # to the hit index, as in a sort on (segment, parameter, hit)
    params = hts + hss
    params[::2], params[1::2] = hts, hss
    buckets = [[] for _ in vertices]
    for h, (i, j) in enumerate(zip(his, hjs)):
        buckets[i].append(2 * h)
        buckets[j].append(2 * h + 1)
    order = []
    for bucket in buckets:
        bucket.sort(key=params.__getitem__)
        order += bucket
    over_is_i = _decide_over(hits, layers, weave)
    # ids number the crossings in order of first passage
    ids = {}
    signs = [0] * len(his)
    gauss = []
    for p in order:
        h = p >> 1
        if h not in ids:
            ids[h] = len(ids) + 1
            i, j = his[h], hjs[h]
            # the sign of over x under; under x over is its exact negation
            cross = dxs[i] * dys[j] - dys[i] * dxs[j]
            signs[h] = 1 if (cross > 0 if over_is_i[h] else cross < 0) else -1
        # over on segment i's passage (p even) exactly when over_is_i
        gauss.append((ids[h], over_is_i[h] != (p & 1), signs[h]))
    return KnotDiagram(gauss)


# ------------------------------------------------------------ certification


class CertificationReport(_Record):
    """Outcome of comparing a construction's diagram with the expected knot.

    ``p`` and ``q`` and the crossing bound are None unless the expected
    knot is a torus knot; ``reference`` and ``matches`` are None when
    nothing was expected.  ``certificate`` is "diagram" when the diagram is
    the expected torus knot's standard diagram or its mirror image, and
    ``handedness`` is then +1 or -1 (``braid.torus_handedness``); it is
    "alexander" otherwise, with ``handedness`` None.
    """

    _fields = __match_args__ = (
        "p", "q", "crossing_count", "gauss", "alexander", "reference", "determinant",
        "crossing_bound", "crossing_bound_ok", "matches", "certificate", "handedness")
    p: Optional[int]
    q: Optional[int]
    crossing_count: int
    gauss: Tuple[Tuple[int, bool, int], ...]
    alexander: LaurentPolynomial
    reference: Optional[LaurentPolynomial]
    determinant: int
    crossing_bound: Optional[int]
    crossing_bound_ok: Optional[bool]
    matches: Optional[bool]
    certificate: str
    handedness: Optional[int]

    def __init__(
        self,
        p: Optional[int],
        q: Optional[int],
        crossing_count: int,
        gauss: Tuple[Tuple[int, bool, int], ...],
        alexander: LaurentPolynomial,
        reference: Optional[LaurentPolynomial],
        determinant: int,
        crossing_bound: Optional[int],
        crossing_bound_ok: Optional[bool],
        matches: Optional[bool],
        certificate: str,
        handedness: Optional[int],
    ):
        self.__dict__.update(p=p, q=q, crossing_count=crossing_count, gauss=gauss,
                             alexander=alexander, reference=reference, determinant=determinant,
                             crossing_bound=crossing_bound, crossing_bound_ok=crossing_bound_ok,
                             matches=matches, certificate=certificate, handedness=handedness)

    def summary(self) -> str:
        torus = ""
        if self.p is not None:
            torus = "(%d,%d): %d crossings (bound %d %s), det %d, " % (
                self.p,
                self.q,
                self.crossing_count,
                self.crossing_bound,
                "ok" if self.crossing_bound_ok else "VIOLATED",
                self.determinant,
            )
        if self.matches is None:
            return "%sAlexander %s, no reference" % (torus, self.alexander)
        return "%sAlexander %s vs %s -> %s" % (
            torus, self.alexander, self.reference, "MATCH" if self.matches else "MISMATCH")


def verify_knot_type(program: FoldProgram, expected: Tuple[int, int]) -> CertificationReport:
    """Certify that a closed program ties the expected (p, q) torus knot.

    The verdict is in the report; a mismatch is a result, not an error.
    Extraction or polynomial failures propagate as their own errors.
    """
    return certification_report(extract_diagram(layout(program)), expected)


def certification_report(
    diagram: KnotDiagram,
    expected: Union[Tuple[int, int], FamilyId, None],
) -> CertificationReport:
    """Compare a diagram and its Alexander polynomial with the expected knot.

    ``expected`` is a torus knot ``(p, q)``, a tuple or list of two ints
    that are not bools; or a family, whose knot the family table gives (a
    torus knot, or the Alexander coefficients of the 7_4 rectangle); or
    None, which only reports the invariants.  Anything else raises
    InvalidInputError.  Either chirality matches.  A diagram that is the
    expected torus knot's standard diagram, or its mirror image, has that
    knot's polynomial; any other diagram's polynomial is computed by
    ``alexander_polynomial``.
    """
    _expect_type(diagram, KnotDiagram)
    p = q = bound = reference = matches = handedness = None
    if isinstance(expected, FamilyId):
        knot = _FAMILIES[expected.tag].knot
        if isinstance(knot, tuple):
            reference = LaurentPolynomial.from_list(knot)
        else:
            p, q = knot(expected.parameter)
    elif expected is not None:
        if (not isinstance(expected, (tuple, list)) or len(expected) != 2
                or any(isinstance(v, bool) or not isinstance(v, int) for v in expected)):
            raise InvalidInputError("expected knot must be a FamilyId, None or two ints (p, q)")
        p, q = expected
    if p is not None:
        reference = torus_alexander(p, q)
        bound = min(p * (q - 1), q * (p - 1))
        # T(p, 1) is the unknot, with no braid diagram for the match to read
        if min(p, q) > 1:
            handedness = torus_handedness(diagram.gauss, p, q)
    delta = reference if handedness is not None else alexander_polynomial(diagram)
    if reference is not None:
        matches = reference in (delta, delta.mirror())
    return CertificationReport(
        p=p,
        q=q,
        crossing_count=diagram.crossing_count,
        gauss=diagram.gauss,
        alexander=delta,
        reference=reference,
        determinant=abs(int(delta.evaluate(-1))),
        crossing_bound=bound,
        crossing_bound_ok=None if bound is None else diagram.crossing_count >= bound,
        matches=matches,
        certificate="alexander" if handedness is None else "diagram",
        handedness=handedness,
    )
