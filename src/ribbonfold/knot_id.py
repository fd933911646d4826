"""Knot diagram extraction and Alexander-polynomial certification.

The folded centerline of a closed program is a closed polygonal curve.
Its transverse self-intersections, together with over/under decisions
read from the panel stacking, form a knot diagram.  The diagram's
Alexander polynomial is computed exactly from the crossing/arc matrix
and compared, by ``certification_report``, with the classical torus-knot
polynomial or with the 7_4 polynomial the family table holds, to certify
that a construction really ties the knot it claims.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple, Union

from .constructions import _FAMILIES, FamilyId
from .errors import (
    DegenerateDiagramError,
    InconsistencyError,
    InvalidDiagramError,
    InvalidInputError,
    LayeringInconsistencyError,
)
from .fold_core import FoldProgram, FoldedLayout, Point, layout

DEFAULT_PERTURBATION_SCALE = 1e-3
_TORUS_DEGREE_LIMIT = 10**6


# ------------------------------------------------------------ polynomials


class LaurentPolynomial:
    """Integer Laurent polynomial in one variable t, kept up to units +-t^k.

    Alexander polynomials are defined only up to units +-t^k, so only
    the normalized representative is stored: ascending coefficients with
    lowest exponent 0 and a positive constant term.  Equality therefore
    means "equal up to +-t^k".
    """

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients=None):
        terms = {}
        if coefficients:
            for exp, c in dict(coefficients).items():
                if isinstance(exp, bool) or not isinstance(exp, int):
                    raise InvalidInputError("exponents must be integers")
                if isinstance(c, bool) or not isinstance(c, int):
                    raise InvalidInputError("coefficients must be integers")
                if c != 0:
                    terms[exp] = c
        self._coeffs = ()
        if terms:
            low = min(terms)
            unit = 1 if terms[low] > 0 else -1
            coeffs = [0] * (max(terms) - low + 1)
            for exp, c in terms.items():
                coeffs[exp - low] = unit * c
            self._coeffs = tuple(coeffs)

    @property
    def coefficients(self) -> Dict[int, int]:
        return {e: c for e, c in enumerate(self._coeffs) if c}

    @classmethod
    def from_list(cls, coeffs: Sequence[int]) -> "LaurentPolynomial":
        return cls(dict(enumerate(coeffs)))

    def is_zero(self) -> bool:
        return not self._coeffs

    @property
    def degree(self) -> int:
        if not self._coeffs:
            raise InvalidInputError("zero polynomial has no exponent range")
        return len(self._coeffs) - 1

    def __eq__(self, other) -> bool:
        if not isinstance(other, LaurentPolynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self):
        return hash(self._coeffs)

    def mirror(self) -> "LaurentPolynomial":
        """The polynomial at 1/t (the Alexander polynomial of the mirror)."""
        return LaurentPolynomial.from_list(self._coeffs[::-1])

    def evaluate(self, x):
        """Exact value at x (int or Fraction), an int when it is integral."""
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


# dense integer polynomial helpers (ascending coefficients, no gaps)


def _pstrip(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _paxpy(acc: List[int], f: List[int], v: List[int]) -> List[int]:
    """acc + f * v over Z[t], as a new stripped list.

    Each nonzero term of the shorter factor adds its multiple of every
    nonzero term of the longer one; the entries Bareiss elimination
    multiplies are long but mostly zero.
    """
    if len(f) > len(v):
        f, v = v, f
    if not f:
        # a zero product; padding to len(v) would only be stripped again
        return _pstrip(list(acc))
    terms = [(j, y) for j, y in enumerate(v) if y]
    out = acc + [0] * (len(f) + len(v) - 1 - len(acc))
    for i, c in enumerate(f):
        if c:
            for j, y in terms:
                out[i + j] += c * y
    return _pstrip(out)


def _pdiv_exact(a: List[int], b: List[int]) -> List[int]:
    """Exact division in Z[t]; raises if the quotient is not integral."""
    if not b:
        raise InconsistencyError("polynomial division by zero")
    if not a:
        return []
    rem = list(a)
    out = [0] * (len(a) - len(b) + 1)
    lead = b[-1]
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + len(b) - 1]
        if c % lead != 0:
            raise InconsistencyError("polynomial division is not exact")
        q = c // lead
        out[k] = q
        if q:
            for j, cb in enumerate(b):
                rem[k + j] -= q * cb
    if any(rem):
        raise InconsistencyError("polynomial division left a remainder")
    return _pstrip(out)


def _poly_bareiss(matrix: List[List[List[int]]]) -> List[int]:
    """Fraction-free determinant of a matrix of integer polynomials."""
    n = len(matrix)
    if n == 0:
        return [1]
    m = [row[:] for row in matrix]
    sign = 1
    prev = [1]
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return []
        for i in range(k + 1, n):
            neg = [-c for c in m[i][k]]
            for j in range(k + 1, n):
                num = _paxpy(_paxpy([], m[i][j], m[k][k]), neg, m[k][j])
                m[i][j] = _pdiv_exact(num, prev)
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det


def _unit_pivot_det(rows: List[Dict[int, List[int]]], columns: Sequence[int]) -> List[int]:
    """Determinant, up to sign, of a square sparse matrix over Z[t].

    ``rows`` map column -> ascending coefficient list with no zero entries.
    Elimination pivots only on constant entries +-1, chosen by Markowitz
    cost (row nnz - 1) * (col nnz - 1) with ties to the lowest (row, col).
    Dividing by a unit is exact, and units and row/column order change the
    determinant only by a sign.  The block left when no unit pivot
    remains goes to fraction-free elimination.
    """
    rows = [dict(r) for r in rows]
    col_rows: Dict[int, set] = {j: set() for j in columns}
    for i, row in enumerate(rows):
        for j in row:
            col_rows[j].add(i)
    live = set(range(len(rows)))
    heap: List[Tuple[int, int, int]] = []

    def offer(i: int, j: int) -> None:
        v = rows[i][j]
        if len(v) == 1 and (v[0] == 1 or v[0] == -1):
            heapq.heappush(heap, ((len(rows[i]) - 1) * (len(col_rows[j]) - 1), i, j))

    for i, row in enumerate(rows):
        for j in row:
            offer(i, j)
    while heap:
        cost, r, c = heapq.heappop(heap)
        pivot = rows[r]
        # every change to an entry or its cost pushes a fresh key, so a
        # key that no longer matches its entry is stale
        if (r not in live or pivot.get(c) not in ([1], [-1])
                or cost != (len(pivot) - 1) * (len(col_rows[c]) - 1)):
            continue
        # row_i -= (f / u) * pivot, and 1/u == u for a unit u
        u = pivot.pop(c)[0]
        live.remove(r)
        for j in pivot:
            col_rows[j].discard(r)
        changed = col_rows.pop(c)
        changed.discard(r)
        for i in changed:
            row = rows[i]
            factor = [-u * x for x in row.pop(c)]
            for j, v in pivot.items():
                entry = _paxpy(row.get(j, []), factor, v)
                if entry:
                    row[j] = entry
                    col_rows[j].add(i)
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
        for i in changed:
            for j in rows[i]:
                offer(i, j)
        for j in pivot:
            for i in col_rows[j]:
                offer(i, j)
    rest = sorted(live)
    cols = sorted(col_rows)
    return _poly_bareiss([[rows[i].get(j, []) for j in cols] for i in rest])


# ------------------------------------------------------------ diagram types


class Crossing(NamedTuple):
    """One transverse double point of the diagram."""

    id: int
    over_arc: int
    under_in_arc: int
    under_out_arc: int
    sign: int


@dataclass(frozen=True)
class KnotDiagram:
    """A knot diagram, built from its signed Gauss code alone.

    ``gauss`` lists, in strand order, triples (crossing id, is_over,
    sign); each crossing id appears exactly twice, once over and once
    under, with the same sign +-1 both times.  Construction normalizes
    the entries to (int, bool, int), rejects any other code with
    InvalidDiagramError, and in the same walk derives ``crossings``, the
    arc incidences of every crossing in id order.  A knot diagram has as
    many arcs as crossings: arc k runs from the k-th under-passage
    (exclusive) to the next one (inclusive), wrapping around the strand.
    """

    gauss: Tuple[Tuple[int, bool, int], ...]
    crossings: Tuple[Crossing, ...] = field(init=False)

    def __post_init__(self) -> None:
        entries = []
        over_arc: Dict[int, Tuple[int, int]] = {}
        under: Dict[int, Tuple[int, int, int]] = {}
        # the strand is on arc k - 1 before the k-th under-passage, and on
        # the last arc, -1 mod the final count of under-passages, before
        # the first
        arc = -1
        passed = 0
        for cid, over, sign in self.gauss:
            cid, sign = int(cid), int(sign)
            if sign not in (-1, 1):
                raise InvalidDiagramError("crossing sign must be +1 or -1")
            if over:
                over_arc[cid] = (arc, sign)
                entries.append((cid, True, sign))
            else:
                under[cid] = (arc, passed, sign)
                arc = passed
                passed += 1
                entries.append((cid, False, sign))
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
            o_arc, o_sign = over_arc[cid]
            in_arc, out_arc, sign = under[cid]
            if o_sign != sign:
                raise InvalidDiagramError("crossing %d has inconsistent signs" % cid)
            crossings.append(Crossing._make((cid, o_arc % passed, in_arc % passed, out_arc, sign)))
        object.__setattr__(self, "gauss", tuple(entries))
        object.__setattr__(self, "crossings", tuple(crossings))

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)


# --------------------------------------------------------------- Alexander


def alexander_polynomial(
    diagram: KnotDiagram,
    row: Optional[int] = None,
    col: Optional[int] = None,
) -> LaurentPolynomial:
    """Normalized Alexander polynomial of a knot diagram.

    Builds the n x n crossing/arc matrix over Z[t] (one row per crossing,
    one column per arc), deletes row ``row`` and column ``col`` (ints
    in [0, n), the last by default), and takes the determinant of the
    minor exactly.  Each
    crossing row has at most three entries, one of them a constant -1 at
    the under-out arc (positive crossing) or +1 at the under-in arc
    (negative crossing), so sparse elimination on these unit pivots
    removes nearly every row without division.  The few rows left with no
    unit pivot go to fraction-free (Bareiss) elimination over Z[t].
    """
    n = diagram.crossing_count
    r = n - 1 if row is None else row
    c_ = n - 1 if col is None else col
    for v in (r, c_):
        if isinstance(v, bool) or not isinstance(v, int):
            raise InvalidInputError("deleted row/column must be an integer")
    if not (0 <= r < n and 0 <= c_ < n):
        raise InvalidInputError("deleted row/column out of range")
    minor: List[Dict[int, List[int]]] = []
    for i, c in enumerate(diagram.crossings):
        if i == r:
            continue
        # (arc, constant, t) coefficients; arcs may coincide, so sum them
        if c.sign > 0:
            terms = ((c.over_arc, 1, -1), (c.under_in_arc, 0, 1), (c.under_out_arc, -1, 0))
        else:
            terms = ((c.over_arc, -1, 1), (c.under_in_arc, 1, 0), (c.under_out_arc, 0, -1))
        entries: Dict[int, List[int]] = {}
        for arc, c0, c1 in terms:
            if arc != c_:
                e = entries.setdefault(arc, [0, 0])
                e[0] += c0
                e[1] += c1
        minor.append({arc: _pstrip(e) for arc, e in entries.items() if any(e)})
    det = _unit_pivot_det(minor, [j for j in range(n) if j != c_])
    poly = LaurentPolynomial.from_list(det)
    if poly.is_zero():
        raise InvalidDiagramError("Alexander determinant vanished; not a knot diagram")
    return poly


def torus_alexander(p: int, q: int) -> LaurentPolynomial:
    """Alexander polynomial of the (p, q) torus knot.

    Computed as the exact quotient (t^{pq} - 1)(t - 1) divided by
    (t^p - 1)(t^q - 1); either parameter equal to 1 gives the unknot
    polynomial 1.  The degree (p-1)(q-1) may be at most 10**6: a diagram
    with that polynomial has more crossings than any this module extracts.
    """
    for v in (p, q):
        if isinstance(v, bool) or not isinstance(v, int) or v < 1:
            raise InvalidInputError("torus parameters must be integers >= 1")
    if math.gcd(p, q) != 1:
        raise InvalidInputError("torus knot parameters must be coprime")
    if (p - 1) * (q - 1) > _TORUS_DEGREE_LIMIT:
        raise InvalidInputError("torus knot degree (p-1)(q-1) exceeds %d" % _TORUS_DEGREE_LIMIT)
    if min(p, q) == 1:
        return LaurentPolynomial.from_list([1])

    def cyclo(k: int) -> List[int]:
        out = [0] * (k + 1)
        out[0] = -1
        out[k] = 1
        return out

    numerator = _paxpy([], cyclo(p * q), cyclo(1))
    quotient = _pdiv_exact(numerator, cyclo(p))
    quotient = _pdiv_exact(quotient, cyclo(q))
    return LaurentPolynomial.from_list(quotient)


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


def _parallel_partners(vectors) -> List[int]:
    """Per segment, a bit mask of the others whose direction agrees mod pi.

    Directions are sorted on their angle mod pi and each is paired with
    its neighbours within ``_DIRECTION_WINDOW``, walking on past pi so that
    angles just above 0 meet angles just below pi.
    """
    m = len(vectors)
    angles = sorted((math.atan2(vy, vx) % math.pi, k) for k, (vx, vy) in enumerate(vectors))
    partners = [0] * m
    for r, (theta, k) in enumerate(angles):
        for step in range(1, m):
            other, j = angles[(r + step) % m]
            if other + (math.pi if r + step >= m else 0.0) - theta > _DIRECTION_WINDOW:
                break
            partners[k] |= 1 << j
            partners[j] |= 1 << k
    return partners


def _collinear_groups(centerline, scale: float) -> List[List[int]]:
    """Indices of segments sharing a supporting line, in strand order.

    Each segment joins the first group, in order of creation, whose
    leading segment it matches; only parallel partners can match.
    """
    keys = []
    for k, (a, b) in enumerate(centerline):
        ux, uy = b.x - a.x, b.y - a.y
        norm = math.hypot(ux, uy)
        # a zero length, or one that overflows while both components are
        # finite, leaves no unit direction to divide out
        if norm == 0.0 or (norm == math.inf and math.isfinite(ux) and math.isfinite(uy)):
            raise DegenerateDiagramError("segment %d has no unit direction (length %g)" % (k, norm))
        keys.append(_canonical_line(a, ux / norm, uy / norm))
    partners = _parallel_partners([(b.x - a.x, b.y - a.y) for a, b in centerline])
    # groups by leading segment, in order of creation
    groups: Dict[int, List[int]] = {}
    leaders = 0
    tol_d = 1e-9 * max(scale, 1.0)
    for i, (nx, ny, d) in enumerate(keys):
        mask = partners[i] & leaders
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


def _candidate_masks(segs, scale: float, tol_param: float) -> List[int]:
    """Per segment i, a bit mask of the segments j the crossing test must
    pair it with, bit b standing for j = i + 2 + b.

    A superset of the pairs that can cross, touch or coincide: those whose
    bounding boxes, grown by the ``tol_param`` extent and a margin, share
    a cell of a uniform grid, and the parallel partners.  Outside the
    direction window |sin| >= 1e-6, so rounding moves a computed crossing
    by under 1e-8 * scale, far inside the margin.  Each grid cell holds
    an integer bit mask over segment indices.
    """
    m = len(segs)
    margin = 1e-6 * max(scale, 1.0)
    boxes = []
    for a, dx, dy in segs:
        ex = tol_param * abs(dx) + margin
        ey = tol_param * abs(dy) + margin
        bx, by = a.x + dx, a.y + dy
        boxes.append((min(a.x, bx) - ex, min(a.y, by) - ey,
                      max(a.x, bx) + ex, max(a.y, by) + ey))
    x0 = min(box[0] for box in boxes)
    y0 = min(box[1] for box in boxes)
    cells_per_side = math.isqrt(m) + 1
    cw = (max(box[2] for box in boxes) - x0) / cells_per_side
    ch = (max(box[3] for box in boxes) - y0) / cells_per_side

    def cell(v, origin, size):
        # near the float limit an extent overflows and c is inf or nan;
        # both go to the last cell, which keeps the map monotone
        c = (v - origin) / size
        return int(c) if c < cells_per_side - 1 else cells_per_side - 1

    grid = [0] * (cells_per_side * cells_per_side)
    covers = []
    for k, (bx0, by0, bx1, by1) in enumerate(boxes):
        cells = [cx * cells_per_side + cy
                 for cx in range(cell(bx0, x0, cw), cell(bx1, x0, cw) + 1)
                 for cy in range(cell(by0, y0, ch), cell(by1, y0, ch) + 1)]
        for c in cells:
            grid[c] |= 1 << k
        covers.append(cells)
    partners = _parallel_partners([(dx, dy) for _, dx, dy in segs])
    masks = []
    for i in range(m):
        mask = partners[i]
        for c in covers[i]:
            mask |= grid[c]
        # neighbours and the closing pair (0, m - 1) are never tested
        masks.append(mask >> (i + 2))
    masks[0] &= ~(1 << (m - 3))
    return masks


def _find_crossings(vertices, scale: float):
    """Transverse interior intersections of the closed polyline.

    ``vertices`` are finite with no two consecutive ones equal, and
    ``scale`` is their largest coordinate magnitude.  Hits come in
    ascending segment-pair order.
    """
    m = len(vertices)
    segs = []
    for k in range(m):
        a = vertices[k]
        b = vertices[(k + 1) % m]
        segs.append((a, b.x - a.x, b.y - a.y))
    tol_param = 1e-9
    tol_point = 1e-12 * max(scale, 1.0)
    lengths = [math.hypot(dx, dy) for _, dx, dy in segs]
    hits = []
    for i, mask in enumerate(_candidate_masks(segs, scale, tol_param)):
        ai, dix, diy = segs[i]
        length_i = lengths[i]
        while mask:
            low = mask & -mask
            mask ^= low
            j = i + 1 + low.bit_length()
            aj, djx, djy = segs[j]
            denom = dix * djy - diy * djx
            norm = length_i * lengths[j]
            if abs(denom) < 1e-12 * max(norm, 1e-30):
                # parallel tracks never cross; a coincident overlap is
                # degenerate
                rx, ry = aj.x - ai.x, aj.y - ai.y
                dist = abs(rx * diy - ry * dix) / length_i
                if dist < tol_point:
                    raise DegenerateDiagramError(
                        "segments %d and %d remain coincident" % (i, j)
                    )
                continue
            rx, ry = aj.x - ai.x, aj.y - ai.y
            t = (rx * djy - ry * djx) / denom
            s = (rx * diy - ry * dix) / denom
            if t < -tol_param or t > 1 + tol_param or s < -tol_param or s > 1 + tol_param:
                continue
            interior_t = tol_param < t < 1 - tol_param
            interior_s = tol_param < s < 1 - tol_param
            if not (interior_t and interior_s):
                raise DegenerateDiagramError(
                    "segments %d and %d touch at an endpoint" % (i, j)
                )
            hits.append((i, t, j, s, Point(ai.x + t * dix, ai.y + t * diy)))
    # two hits closer than tol_point differ by less than it in x
    by_x = sorted((h[4] for h in hits), key=lambda p: p.x)
    for a, pa in enumerate(by_x):
        for b in range(a + 1, len(by_x)):
            pb = by_x[b]
            if pb.x - pa.x >= tol_point:
                break
            if math.hypot(pa.x - pb.x, pa.y - pb.y) < tol_point:
                raise DegenerateDiagramError("multiple crossings coincide at one point")
    return segs, hits


def _decide_over(hits, segs, order, layers, weave, centroid, scale):
    """Over/under decision per crossing; returns over_is_i flags.

    ``order`` lists the passages (segment, parameter, hit, is_i) in
    strand order.
    """
    mode = "layers" if weave is None else weave.mode
    if mode == "layers":
        flags = []
        for (i, t, j, s, pos) in hits:
            if layers[i] == layers[j]:
                raise LayeringInconsistencyError(
                    "segments %d and %d share layer %d at a crossing" % (i, j, layers[i])
                )
            flags.append(layers[i] > layers[j])
        return flags
    if mode == "explicit":
        table = {}
        for (a, b, s) in weave.pairs:
            table[(a, b)] = s
            table.setdefault((b, a), -s)
        flags = []
        for (i, t, j, s_, pos) in hits:
            if (i, j) not in table:
                raise LayeringInconsistencyError(
                    "explicit weave has no entry for segments %d and %d" % (i, j)
                )
            flags.append(table[(i, j)] > 0)
        return flags
    if mode == "torus":
        flags = []
        for (i, t, j, s, pos) in hits:
            ui = segs[i][1], segs[i][2]
            uj = segs[j][1], segs[j][2]
            ni = math.hypot(*ui)
            nj = math.hypot(*uj)
            out_i = (ui[0] * (pos.x - centroid.x) + ui[1] * (pos.y - centroid.y)) / ni
            out_j = (uj[0] * (pos.x - centroid.x) + uj[1] * (pos.y - centroid.y)) / nj
            if abs(out_i - out_j) < 1e-9 * max(scale, 1.0):
                raise LayeringInconsistencyError(
                    "outbound rule cannot order segments %d and %d" % (i, j)
                )
            flags.append(out_i > out_j)
        return flags
    if mode == "alternating":
        # passage ranks along the strand; over on even ranks
        first_rank = {}
        flags = [None] * len(hits)
        for rank, (seg, t, h, is_i) in enumerate(order):
            if h not in first_rank:
                first_rank[h] = rank
                over_here = rank % 2 == 0
            else:
                if (rank - first_rank[h]) % 2 == 0:
                    raise LayeringInconsistencyError(
                        "alternating weave is inconsistent at crossing %d" % h
                    )
                over_here = rank % 2 == 0
            if flags[h] is None:
                flags[h] = over_here if is_i else not over_here
        return flags
    raise LayeringInconsistencyError("unsupported weave mode %r" % mode)


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
    displaced and a second pass would repeat the first exactly, so it is
    skipped.
    """
    src = lay.source
    if src is not None and src.presentation != "closed":
        raise DegenerateDiagramError("open strips do not close into a knot diagram")
    if len(lay.centerline) < 3:
        raise DegenerateDiagramError("too few segments to form a diagram")
    w = lay.width
    if perturbation is None:
        perturbation = DEFAULT_PERTURBATION_SCALE * w
    if not (perturbation > 0 and math.isfinite(perturbation)):
        raise InvalidInputError("perturbation must be a positive real")
    m = len(lay.centerline)
    for k in range(m):
        b = lay.centerline[k][1]
        a_next = lay.centerline[(k + 1) % m][0]
        if math.hypot(b.x - a_next.x, b.y - a_next.y) > 1e-6 * max(w, 1.0):
            raise DegenerateDiagramError("centerline is not a closed loop")
    layers = [p.layer for p in lay.panels]
    weave = src.weave if src is not None else None
    scale = max(abs(v) for a, _ in lay.centerline for v in a)
    groups = _collinear_groups(lay.centerline, scale)
    first = _extract_once(lay.centerline, groups, layers, weave, perturbation)
    if groups:
        second = _extract_once(lay.centerline, groups, layers, weave, perturbation / 2.0)
        if first.gauss != second.gauss:
            raise DegenerateDiagramError(
                "Gauss code changed under perturbation halving; displacement too large"
            )
    return first


def _extract_once(centerline, groups, layers, weave, epsilon) -> KnotDiagram:
    vertices = _perturbed_polyline(centerline, groups, epsilon)
    scale = max(max(abs(v.x), abs(v.y)) for v in vertices)
    cx = math.fsum(v.x for v in vertices) / len(vertices)
    cy = math.fsum(v.y for v in vertices) / len(vertices)
    segs, hits = _find_crossings(vertices, scale)
    if not hits:
        raise DegenerateDiagramError("centerline has no self-intersections")
    order = []
    for h, (i, t, j, s, pos) in enumerate(hits):
        order.append((i, t, h, True))
        order.append((j, s, h, False))
    # passages that tie on (segment, parameter) fall to the hit index,
    # which is the order they were appended in, so sorting whole records
    # gives strand order as a stable sort on those two fields would
    order.sort()
    over_is_i = _decide_over(hits, segs, order, layers, weave, Point(cx, cy), scale)
    signs = []
    for flag, (i, t, j, s, pos) in zip(over_is_i, hits):
        _, dix, diy = segs[i]
        _, djx, djy = segs[j]
        # the sign of over x under; under x over is its exact negation
        cross = dix * djy - diy * djx
        signs.append(1 if (cross > 0 if flag else cross < 0) else -1)
    ids: Dict[int, int] = {}
    gauss = []
    for seg, t, h, is_i in order:
        if h not in ids:
            ids[h] = len(ids) + 1
        gauss.append((ids[h], over_is_i[h] == is_i, signs[h]))
    return KnotDiagram(tuple(gauss))


# ------------------------------------------------------------ certification


@dataclass(frozen=True)
class CertificationReport:
    """Outcome of comparing a construction's diagram with the expected knot.

    ``p`` and ``q`` and the crossing bound are None unless the expected
    knot is a torus knot; ``reference`` and ``matches`` are None when
    nothing was expected.
    """

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
    diagram = extract_diagram(layout(program))
    return certification_report(diagram, alexander_polynomial(diagram), expected)


def certification_report(
    diagram: KnotDiagram,
    delta: LaurentPolynomial,
    expected: Union[Tuple[int, int], FamilyId, None],
) -> CertificationReport:
    """Compare a diagram and its Alexander polynomial with the expected knot.

    ``expected`` is a torus knot ``(p, q)``; or a family, whose knot the
    family table gives (a torus knot, or the Alexander coefficients of
    the 7_4 rectangle); or None, which only reports the invariants.
    Either chirality matches.
    """
    p = q = bound = reference = matches = None
    if isinstance(expected, FamilyId):
        knot = _FAMILIES[expected.tag].knot
        if isinstance(knot, tuple):
            reference = LaurentPolynomial.from_list(knot)
        else:
            p, q = knot(expected.parameter)
    elif expected is not None:
        p, q = int(expected[0]), int(expected[1])
    if p is not None:
        reference = torus_alexander(p, q)
        bound = min(p * (q - 1), q * (p - 1))
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
    )
