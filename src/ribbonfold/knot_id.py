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
from collections.abc import Mapping
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
            unit = 1 if terms[low] > 0 else -1
            coeffs = [0] * (high - low + 1)
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


# Z[t] arithmetic.  Polynomials are dense ascending coefficient lists with
# no trailing zero.  Products and sums loop over nonzero terms only, and
# exact division subtracts only the divisor's nonzero terms; both take
# operands as ascending (exponent, coefficient) term lists, so that
# elimination lists an operand it reuses once instead of scanning its
# zeros on every use.


def _pstrip(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _terms(a: List[int]) -> List[Tuple[int, int]]:
    """The nonzero terms (exponent, coefficient) of a, ascending."""
    return [(e, c) for e, c in enumerate(a) if c]


def _dense(terms: List[Tuple[int, int]]) -> List[int]:
    """The stripped coefficient list of an ascending term list."""
    out = [0] * (terms[-1][0] + 1) if terms else []
    for e, c in terms:
        out[e] = c
    return out


def _add_product(out: List[int], low: int, f, v) -> None:
    """Add f * v, for term lists f and v, into the dense list ``out``,
    whose first slot holds the coefficient of t^low; the shorter term list
    runs the outer loop."""
    if len(f) > len(v):
        f, v = v, f
    for i, c in f:
        i -= low
        for j, y in v:
            out[i + j] += c * y


def _axpy_terms(acc: List[int], f, v) -> List[int]:
    """acc + f * v over Z[t] for term lists f and v, as a new stripped list."""
    if not f or not v:
        # a zero product; padding would only be stripped again
        return _pstrip(list(acc))
    out = acc + [0] * (f[-1][0] + v[-1][0] + 1 - len(acc))
    _add_product(out, 0, f, v)
    return _pstrip(out)


def _paxpy(acc: List[int], f: List[int], v: List[int]) -> List[int]:
    """acc + f * v over Z[t], as a new stripped list."""
    return _axpy_terms(acc, _terms(f), _terms(v))


def _divide(rem: List[int], low: int, b: List[Tuple[int, int]]) -> List[Tuple[int, int]]:
    """Exact quotient in Z[t], as a term list, of the dividend held in the
    dense list ``rem`` (first slot the coefficient of t^low, no exponent
    below low) by the term list ``b``.  Consumes ``rem``; raises
    InconsistencyError if the quotient is not integral.

    A quotient term at t^d pairs with a dividend term at t^(d + b's lowest
    exponent), so d runs from the top of ``rem`` down to low minus that
    exponent, and past that only the slots below b's degree must be zero.
    Each nonzero leading coefficient subtracts its multiple of b's lower
    terms; the leading term cancels by construction and is not written.
    """
    if not b:
        raise InconsistencyError("polynomial division by zero")
    top, lead = b[-1]
    lower = b[:-1]
    stop = max(low - b[0][0], 0)
    quotient = []
    for d in range(low + len(rem) - 1 - top, stop - 1, -1):
        c = rem[d + top - low]
        if c:
            q, r = divmod(c, lead)
            if r:
                raise InconsistencyError("polynomial division is not exact")
            quotient.append((d, q))
            shift = d - low
            for e, cb in lower:
                rem[shift + e] -= q * cb
    if any(rem[:stop + top - low]):
        raise InconsistencyError("polynomial division left a remainder")
    quotient.reverse()
    return quotient


def _pdiv_exact(a: List[int], b: List[int]) -> List[int]:
    """Exact division in Z[t]; raises if the quotient is not integral."""
    return _dense(_divide(list(a), 0, _terms(b)))


def _poly_bareiss(matrix: List[List[List[int]]]) -> List[int]:
    """Fraction-free determinant of a matrix of integer polynomials.

    Every entry is listed as nonzero terms once, on entry.  A step forms
    each numerator m[i][j] * pivot - m[i][k] * m[k][j] in a dense list
    that spans only its own exponents, and divides it exactly by the
    previous pivot.
    """
    n = len(matrix)
    if n == 0:
        return [1]
    m = [[_terms(v) for v in row] for row in matrix]
    sign = 1
    prev = [(0, 1)]
    for k in range(n - 1):
        if not m[k][k]:
            for r in range(k + 1, n):
                if m[r][k]:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return []
        pivot = m[k][k]
        p_low, p_high = pivot[0][0], pivot[-1][0]
        pivot_row = m[k][k + 1:]
        for i in range(k + 1, n):
            row = m[i]
            neg = [(e, -c) for e, c in row[k]]
            for j, v in enumerate(pivot_row, k + 1):
                a = row[j]
                if neg and v:
                    low, high = neg[0][0] + v[0][0], neg[-1][0] + v[-1][0]
                    if a:
                        low, high = min(low, a[0][0] + p_low), max(high, a[-1][0] + p_high)
                elif a:
                    low, high = a[0][0] + p_low, a[-1][0] + p_high
                else:
                    row[j] = []
                    continue
                num = [0] * (high + 1 - low)
                if a:
                    _add_product(num, low, a, pivot)
                if neg and v:
                    _add_product(num, low, neg, v)
                row[j] = _divide(num, low, prev)
            row[k] = []
        prev = pivot
    det = _dense(m[n - 1][n - 1])
    return [-c for c in det] if sign < 0 else det


def _unit_pivot_det(rows: List[Dict[int, List[int]]], columns: Sequence[int]) -> List[int]:
    """Determinant, up to sign, of a square sparse matrix over Z[t].

    ``rows`` map column -> ascending coefficient list with no zero entries.
    Elimination pivots only on constant entries +-1, chosen by Markowitz
    cost (row nnz - 1) * (col nnz - 1) with ties to the lowest (row, col).
    Dividing by a unit is exact, and units and row/column order change the
    determinant only by a sign.  Each pivot lists the nonzero terms of its
    row's entries once, and each row it changes those of its factor once.
    The block left when no unit pivot remains goes to fraction-free
    elimination.
    """
    rows = [dict(r) for r in rows]
    col_rows: Dict[int, set] = {j: set() for j in columns}
    # the unit entries, by column and by row
    col_units: Dict[int, set] = {j: set() for j in columns}
    row_units = [set() for _ in rows]
    for i, row in enumerate(rows):
        for j, v in row.items():
            col_rows[j].add(i)
            if len(v) == 1 and (v[0] == 1 or v[0] == -1):
                col_units[j].add(i)
                row_units[i].add(j)
    live = set(range(len(rows)))
    heap: List[Tuple[int, int, int]] = []
    push = heapq.heappush
    # every unit entry is a pivot candidate; every change to an entry or
    # its cost pushes a fresh key, so a key that no longer matches its
    # entry is stale
    for i, units in enumerate(row_units):
        for j in units:
            push(heap, ((len(rows[i]) - 1) * (len(col_rows[j]) - 1), i, j))
    while heap:
        cost, r, c = heapq.heappop(heap)
        pivot = rows[r]
        if (r not in live or pivot.get(c) not in ([1], [-1])
                or cost != (len(pivot) - 1) * (len(col_rows[c]) - 1)):
            continue
        # row_i -= (f / u) * pivot, and 1/u == u for a unit u, so each
        # changed row adds its factor f times the pivot row scaled by -u
        u = pivot.pop(c)[0]
        live.remove(r)
        for j in pivot:
            col_rows[j].discard(r)
            col_units[j].discard(r)
        changed = col_rows.pop(c)
        changed.discard(r)
        del col_units[c]
        pivot_terms = [(j, [(e, -u * x) for e, x in enumerate(v) if x]) for j, v in pivot.items()]
        for i in changed:
            row = rows[i]
            units = row_units[i]
            units.discard(c)
            factor = _terms(row.pop(c))
            for j, v in pivot_terms:
                entry = _axpy_terms(row.get(j, []), factor, v)
                if entry:
                    row[j] = entry
                    col_rows[j].add(i)
                elif j in row:
                    del row[j]
                    col_rows[j].discard(i)
                if len(entry) == 1 and (entry[0] == 1 or entry[0] == -1):
                    units.add(j)
                    col_units[j].add(i)
                elif j in units:
                    units.discard(j)
                    col_units[j].discard(i)
        for i in changed:
            nnz = len(rows[i]) - 1
            for j in row_units[i]:
                push(heap, (nnz * (len(col_rows[j]) - 1), i, j))
        for j in pivot:
            nnz = len(col_rows[j]) - 1
            for i in col_units[j]:
                push(heap, ((len(rows[i]) - 1) * nnz, i, j))
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
    under, with the same sign +-1 both times.  Ids and signs are ints;
    is_over is a bool, or the int 0 or 1, kept as a bool.  Construction
    rejects any other code with InvalidDiagramError, and in the same walk
    derives ``crossings``, the arc incidences of every crossing in id
    order.  A knot diagram has as many arcs as crossings: arc k runs from
    the k-th under-passage (exclusive) to the next one (inclusive),
    wrapping around the strand.
    """

    gauss: Tuple[Tuple[int, bool, int], ...]
    crossings: Tuple[Crossing, ...] = field(init=False)

    def __post_init__(self) -> None:
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
            code = iter(self.gauss)
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
    if (p - 1) * (q - 1) > _DEGREE_LIMIT:
        raise InvalidInputError("torus knot degree (p-1)(q-1) exceeds %d" % _DEGREE_LIMIT)
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
        while mask:
            low = mask & -mask
            mask ^= low
            j = i + 1 + low.bit_length()
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
    # two hits closer than tol_point differ by less than it in x
    by_x = sorted(range(len(hxs)), key=hxs.__getitem__)
    for a, ha in enumerate(by_x):
        for b in range(a + 1, len(by_x)):
            hb = by_x[b]
            if hxs[hb] - hxs[ha] >= tol_point:
                break
            if math.hypot(hxs[ha] - hxs[hb], hys[ha] - hys[hb]) < tol_point:
                raise DegenerateDiagramError("multiple crossings coincide at one point")
    return (dxs, dys), hits


def _decide_over(hits, dxs, dys, order, layers, weave, vertices, scale):
    """Over/under decision per crossing; returns over_is_i flags.

    ``hits`` are the parallel lists of ``_find_crossings``, and ``order``
    lists the passages in strand order, 2h on hit h's segment i and
    2h + 1 on its segment j.
    """
    his, _, hjs, _, hxs, hys = hits
    mode = "layers" if weave is None else weave.mode
    if mode == "layers":
        flags = []
        for i, j in zip(his, hjs):
            if layers[i] == layers[j]:
                raise LayeringInconsistencyError(
                    "segments %d and %d share layer %d at a crossing" % (i, j, layers[i])
                )
            flags.append(layers[i] > layers[j])
        return flags
    if mode == "explicit":
        # keyed by i * m + j; a pair naming no segment matches no hit
        m = len(dxs)
        table = {}
        for a, b, s in weave.pairs:
            if 0 <= a < m and 0 <= b < m:
                table[a * m + b] = s
                table[b * m + a] = -s
        flags = []
        for i, j in zip(his, hjs):
            s = table.get(i * m + j)
            if s is None:
                raise LayeringInconsistencyError(
                    "explicit weave has no entry for segments %d and %d" % (i, j)
                )
            flags.append(s > 0)
        return flags
    if mode == "torus":
        cx = math.fsum(v[0] for v in vertices) / len(vertices)
        cy = math.fsum(v[1] for v in vertices) / len(vertices)
        flags = []
        for i, j, x, y in zip(his, hjs, hxs, hys):
            rx, ry = x - cx, y - cy
            out_i = (dxs[i] * rx + dys[i] * ry) / math.hypot(dxs[i], dys[i])
            out_j = (dxs[j] * rx + dys[j] * ry) / math.hypot(dxs[j], dys[j])
            if abs(out_i - out_j) < 1e-9 * max(scale, 1.0):
                raise LayeringInconsistencyError(
                    "outbound rule cannot order segments %d and %d" % (i, j)
                )
            flags.append(out_i > out_j)
        return flags
    if mode == "alternating":
        # passage ranks along the strand; over on even ranks, so a passage
        # puts segment i of its hit over when its rank and the passage have
        # one parity, and the two passages of a hit must agree
        flags = [None] * len(his)
        for rank, p in enumerate(order):
            h = p >> 1
            over_i = (rank & 1) == (p & 1)
            if flags[h] is None:
                flags[h] = over_i
            elif flags[h] != over_i:
                raise LayeringInconsistencyError(
                    "alternating weave is inconsistent at crossing %d" % h
                )
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
    displaced and the search runs once, on the centerline's start points.
    Their polyline turns each direction by at most the widest closure gap
    over the shortest segment; under 1e-7 the direction window still holds
    the search's parallel pairs and the grid margin every other pair, so
    one direction sort serves both the group test and the search.
    """
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
    if not (perturbation > 0 and math.isfinite(perturbation)):
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
    over_is_i = _decide_over(hits, dxs, dys, order, layers, weave, vertices, scale)
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
