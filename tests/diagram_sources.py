"""Reference Gauss codes built by strand tracing, independent of geometry.

Two generators feed the knot-identification tests: torus knots as braid
closures, and odd pretzel knots traced through their three twist
columns.  Both produce signed Gauss codes in the (id, is_over, sign)
form ``KnotDiagram`` is built from, so the Alexander machinery can be
checked against knots whose polynomials are known in closed form.  The
right-handed trefoil is typed in, to pin the sign convention.
``gauss_oracle`` validates a code and derives its crossing records in
two separate walks: the oracle for the one walk that builds a
``KnotDiagram``.  A
dense determinant oracle, with Z[t] arithmetic of its own, checks the
sparse one on any diagram, and a
star-polyline oracle checks the exact crease data of the star families
against the geometry of their centerlines.  All-pairs oracles check the
crossing search and the collinear grouping of diagram extraction.
``snapped_boundary_angle`` measures a boundary angle with no memo, as
``unfold`` once did for every crease; ``boundary_outcomes`` holds the
memoized measurement against it, and ``farey_memo`` preloads the memo
with the fractions nearest the one meant.  ``crease_oracle`` and
``cut_oracle`` write out the checks of ``CreaseSpec`` and ``CutSpec`` as
plain functions, and ``spec_outcome`` holds a constructor against one.
"""

import math
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

from ribbonfold.errors import (
    DegenerateDiagramError,
    InconsistencyError,
    InvalidDiagramError,
    MalformedProgramError,
    RibbonError,
)
from ribbonfold.fold_core import (
    ExactAngle,
    FoldProgram,
    Point,
    _recovered_angle,
    layout_from_centerline,
    unfold,
)
from ribbonfold.knot_id import Crossing, LaurentPolynomial, _canonical_line


def torus_braid_gauss(p: int, q: int) -> List[Tuple[int, bool, int]]:
    """Signed Gauss code of the (p,q) torus knot.

    The knot is the closure of the q-strand braid (s_1 s_2 ... s_{q-1})
    repeated p times; each braid letter is one crossing where the
    left strand passes over the right and the two swap places.
    """
    if q < 2 or p < 2:
        raise ValueError("need p, q >= 2")
    word = [k for _ in range(p) for k in range(1, q)]
    occ = list(range(q))
    passages = {s: [] for s in range(q)}
    for letter, k in enumerate(word):
        a, b = occ[k - 1], occ[k]
        passages[a].append((letter, True))
        passages[b].append((letter, False))
        occ[k - 1], occ[k] = b, a
    end_position = {occ[i]: i for i in range(q)}
    sequence = []
    segment = 0
    visited = 0
    while True:
        sequence.extend(passages[segment])
        visited += 1
        segment = end_position[segment]
        if segment == 0:
            break
    if visited != q:
        raise ValueError("braid closure is a link, not a knot")
    # both strands travel downward at every letter, so every crossing
    # has the same handedness, negative: this is the left-handed T(p, q)
    return [(letter, over, -1) for letter, over in sequence]


# The right-handed trefoil, typed in: three crossings met over, under,
# over, under, over, under along the strand, as on every trefoil diagram.
# A crossing is right-handed when, with both strands heading up, the over
# strand runs from lower left to upper right: over (1, 1) x under (-1, 1)
# = 2 > 0, which is sign +1 in the (id, is_over, sign) codes.  All three
# right-handed give writhe +3.
RIGHT_TREFOIL = [(1, True, 1), (2, False, 1), (3, True, 1),
                 (1, False, 1), (2, True, 1), (3, False, 1)]


def pretzel_gauss(a: int, b: int, c: int) -> List[Tuple[int, bool, int]]:
    """Signed Gauss code of the (a,b,c) pretzel knot, all odd and positive.

    Three vertical twist columns hang side by side; tops are joined
    left to right (and around), bottoms likewise.  Within a column
    every crossing has the same handedness: the strand on the
    upper-left to lower-right diagonal is the over strand.
    """
    counts = (a, b, c)
    if any(k < 1 or k % 2 == 0 for k in counts):
        raise ValueError("twist counts must be odd positive integers")
    base = [0, a, a + b]

    def column_passages(col, entry):
        """Passages and exit port for one transit of a column."""
        k = counts[col]
        ids = [base[col] + i for i in range(k)]
        if entry == "TL":
            # over on odd-numbered crossings counted from the top
            recs = [(ids[i], i % 2 == 0, (1.0, -1.0) if i % 2 == 0 else (-1.0, -1.0)) for i in range(k)]
            return recs, "BR"
        if entry == "TR":
            recs = [(ids[i], i % 2 == 1, (1.0, -1.0) if i % 2 == 1 else (-1.0, -1.0)) for i in range(k)]
            return recs, "BL"
        if entry == "BL":
            # reverse of the TR transit, travelling upward
            recs = [
                (ids[i], i % 2 == 1, (-1.0, 1.0) if i % 2 == 1 else (1.0, 1.0))
                for i in range(k - 1, -1, -1)
            ]
            return recs, "TR"
        if entry == "BR":
            recs = [
                (ids[i], i % 2 == 0, (-1.0, 1.0) if i % 2 == 0 else (1.0, 1.0))
                for i in range(k - 1, -1, -1)
            ]
            return recs, "TL"
        raise ValueError(entry)

    def next_entry(col, exit_port):
        if exit_port == "TR":
            return (col + 1) % 3, "TL"
        if exit_port == "TL":
            return (col - 1) % 3, "TR"
        if exit_port == "BR":
            return (col + 1) % 3, "BL"
        if exit_port == "BL":
            return (col - 1) % 3, "BR"
        raise ValueError(exit_port)

    col, entry = 0, "TL"
    trace = []
    while True:
        recs, exit_port = column_passages(col, entry)
        trace.extend(recs)
        col, entry = next_entry(col, exit_port)
        if (col, entry) == (0, "TL"):
            break
        if len(trace) > 4 * sum(counts):
            raise ValueError("trace failed to close")
    total = sum(counts)
    if len(trace) != 2 * total:
        raise ValueError("pretzel closure is a link, not a knot")
    directions = {}
    for cid, over, direction in trace:
        directions.setdefault(cid, {})[over] = direction
    out = []
    for cid, over, _ in trace:
        d_over = directions[cid][True]
        d_under = directions[cid][False]
        sign = 1 if d_over[0] * d_under[1] - d_over[1] * d_under[0] > 0 else -1
        out.append((cid, over, sign))
    return out


# ----------------------------------------------------- Gauss code oracle

# validation and arc derivation as two separate walks, as knot_id had
# them before ``KnotDiagram`` did both while building itself


def validate_gauss(gauss: Sequence[Tuple[int, bool, int]]) -> int:
    """Check knot-diagram Gauss validity; returns the crossing count."""
    if len(gauss) % 2 != 0:
        raise InvalidDiagramError("Gauss code length must be even")
    seen: Dict[int, List[Tuple[bool, int]]] = {}
    for cid, over, sign in gauss:
        if sign not in (-1, 1):
            raise InvalidDiagramError("crossing sign must be +1 or -1")
        seen.setdefault(cid, []).append((over, sign))
    for cid, entries in seen.items():
        if len(entries) != 2:
            raise InvalidDiagramError("crossing %d appears %d times" % (cid, len(entries)))
        (o1, s1), (o2, s2) = entries
        if o1 == o2:
            raise InvalidDiagramError("crossing %d lacks an over/under pair" % cid)
        if s1 != s2:
            raise InvalidDiagramError("crossing %d has inconsistent signs" % cid)
    return len(seen)


def crossings_from_gauss(gauss: Tuple[Tuple[int, bool, int], ...]) -> Tuple[Crossing, ...]:
    """Arc incidences for every crossing of a validated Gauss code, in id order.

    Arc k runs from the k-th under-passage (exclusive) to the next one
    (inclusive), wrapping around the strand.  One walk along the strand
    counts the under-passages passed: the strand is on arc k - 1 before
    the k-th of them, and on the last arc before the first.
    """
    # a validated code holds each crossing once over and once under
    n = len(gauss) // 2
    if n == 0:
        raise InvalidDiagramError("diagram has no under-passages")
    over_arc: Dict[int, int] = {}
    under: Dict[int, Tuple[int, int, int]] = {}
    arc = n - 1
    passed = 0
    for cid, over, sign in gauss:
        if over:
            over_arc[cid] = arc
        else:
            under[cid] = (arc, passed, sign)
            arc = passed
            passed += 1
    return tuple(Crossing(cid, over_arc[cid], *under[cid]) for cid in sorted(under))


def gauss_oracle(gauss):
    """(gauss, crossings) of a diagram built from a Gauss code, by the
    normalize, validate, reject-empty and derive steps in turn."""
    entries = tuple((int(c), bool(o), int(s)) for c, o, s in gauss)
    if validate_gauss(entries) == 0:
        raise InvalidDiagramError("empty Gauss code")
    return entries, crossings_from_gauss(entries)


# ------------------------------------------------- dense determinant oracle

# Z[t] arithmetic on dense ascending coefficient lists, as knot_id had it
# before its determinant fused each product into its sum


def _pstrip(a: List[int]) -> List[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a: List[int], b: List[int]) -> List[int]:
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] += c
    for i, c in enumerate(b):
        out[i] += c
    return _pstrip(out)


def _pmul(a: List[int], b: List[int]) -> List[int]:
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, ca in enumerate(a):
        if ca:
            for j, cb in enumerate(b):
                if cb:
                    out[i + j] += ca * cb
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
                num = _padd(_pmul(m[i][j], m[k][k]), _pmul(neg, m[k][j]))
                m[i][j] = _pdiv_exact(num, prev)
            m[i][k] = []
        prev = m[k][k]
    det = m[n - 1][n - 1]
    return [-c for c in det] if sign < 0 else det


def _int_bareiss(matrix):
    """Fraction-free integer determinant."""
    n = len(matrix)
    if n == 0:
        return 1
    m = [row[:] for row in matrix]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for r in range(k + 1, n):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                num = m[i][j] * m[k][k] - m[i][k] * m[k][j]
                if num % prev != 0:
                    raise ValueError("integer elimination lost exactness")
                m[i][j] = num // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _interpolated_det(matrix):
    """Determinant by integer evaluation and Newton interpolation.

    Entries have degree <= 1, so an s x s determinant has degree <= s
    and s+1 sample points pin it down exactly.
    """
    s = len(matrix)
    points = list(range(2, 2 + s + 1))
    values = []
    for x in points:
        m = [[(e[0] if e else 0) + (e[1] if len(e) > 1 else 0) * x for e in row]
             for row in matrix]
        values.append(_int_bareiss(m))
    dd = [Fraction(v) for v in values]
    for level in range(1, len(points)):
        for i in range(len(points) - 1, level - 1, -1):
            dd[i] = (dd[i] - dd[i - 1]) / (points[i] - points[i - level])
    coeffs = [Fraction(0)] * len(points)
    coeffs[0] = dd[0]
    basis = [Fraction(1)]
    for k in range(1, len(points)):
        new_basis = [Fraction(0)] * (len(basis) + 1)
        for i, c in enumerate(basis):
            new_basis[i] -= c * points[k - 1]
            new_basis[i + 1] += c
        basis = new_basis
        for i, c in enumerate(basis):
            coeffs[i] += dd[k] * c
    if any(c.denominator != 1 for c in coeffs):
        raise ValueError("interpolated determinant is not integral")
    return _pstrip([int(c) for c in coeffs])


def dense_minor(diagram, row, col):
    """The crossing/arc matrix over Z[t] less row ``row`` and column ``col``,
    as dense rows of dense coefficient lists."""
    n = len(diagram.crossings)
    rows = []
    for c in diagram.crossings:
        entries = [[0, 0] for _ in range(n)]
        if c.sign > 0:
            entries[c.over_arc][0] += 1
            entries[c.over_arc][1] -= 1
            entries[c.under_in_arc][1] += 1
            entries[c.under_out_arc][0] -= 1
        else:
            entries[c.over_arc][0] -= 1
            entries[c.over_arc][1] += 1
            entries[c.under_in_arc][0] += 1
            entries[c.under_out_arc][1] -= 1
        rows.append([_pstrip(e) for e in entries])
    return [[rows[i][j] for j in range(n) if j != col] for i in range(n) if i != row]


def dense_alexander(diagram, row=None, col=None, method="auto"):
    """Alexander polynomial from the dense crossing/arc minor.

    The reference for ``knot_id.alexander_polynomial``: row and column
    default to the last; "exact" runs fraction-free elimination over Z[t]
    on the whole minor, "interpolate" evaluates it at s+1 integers and
    interpolates, and "auto" picks "exact" up to 14 rows.
    """
    n = len(diagram.crossings)
    minor = dense_minor(diagram, n - 1 if row is None else row, n - 1 if col is None else col)
    if method == "auto":
        method = "exact" if len(minor) <= 14 else "interpolate"
    det = _poly_bareiss(minor) if method == "exact" else _interpolated_det(minor)
    return LaurentPolynomial.from_list(det)


# ------------------------------------------------- star-polyline oracle


def star_points(n: int, step: int, chord: float) -> List[Point]:
    """Vertices of the {n/step} star polyline with the given chord length."""
    radius = chord / (2.0 * math.sin(step * math.pi / n))
    return [
        Point(
            radius * math.cos(2.0 * math.pi * step * k / n),
            radius * math.sin(2.0 * math.pi * step * k / n),
        )
        for k in range(n)
    ]


def star_polyline_program(tag: str, parameter: int) -> FoldProgram:
    """Closed program of a star family, read back from its placed polyline.

    The centerline visits the vertices of a {n/step} star; every panel
    is placed from it by ``layout_from_centerline`` and the program is
    measured off the panels by ``unfold``, so its angles come from the
    geometry rather than from the construction's formulas.
    """
    if tag == "star_polygon":
        n, step = parameter, 2
        width = math.sin(2.0 * math.pi / n)
        chord = 1.0 + math.cos(2.0 * math.pi / n)
    elif tag == "pinwheel":
        n, step = 2 * parameter + 1, parameter
        width = 1.0
        chord = 1.0 / math.tan(math.pi / (2 * n))
    else:
        n = 2 * parameter + {"odd_wrap": 1, "even_wrap_plus2": 2, "even_wrap_plus4": 4}[tag]
        step = parameter
        if tag == "odd_wrap":
            width = math.cos(math.pi / (2 * n))
        else:
            width = math.sin(step * math.pi / n)
        chord = width / math.tan(math.pi / n)
    if tag == "odd_wrap":
        heights = [((step + 1) * k) % n for k in range(n)]
    else:
        heights = list(range(n))
    lay = layout_from_centerline(star_points(n, step, chord), width, heights, closed=True)
    return unfold(lay)


# ------------------------------------------------- all-pairs extraction oracles


def all_pairs_crossings(vertices, scale: float):
    """Transverse interior intersections of the closed polyline.

    The reference for ``knot_id._find_crossings``: every pair of
    non-adjacent segments is tested, then every pair of hits.
    """
    m = len(vertices)
    segs = []
    for k in range(m):
        a = vertices[k]
        b = vertices[(k + 1) % m]
        segs.append((a, b.x - a.x, b.y - a.y))
    tol_param = 1e-9
    hits = []
    for i in range(m):
        ai, dix, diy = segs[i]
        for j in range(i + 2, m):
            if i == 0 and j == m - 1:
                continue
            aj, djx, djy = segs[j]
            denom = dix * djy - diy * djx
            norm = math.hypot(dix, diy) * math.hypot(djx, djy)
            if abs(denom) < 1e-12 * max(norm, 1e-30):
                # parallel tracks never cross; a coincident overlap is
                # degenerate
                rx, ry = aj.x - ai.x, aj.y - ai.y
                dist = abs(rx * diy - ry * dix) / math.hypot(dix, diy)
                if dist < 1e-12 * max(scale, 1.0):
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
    for a in range(len(hits)):
        for b in range(a + 1, len(hits)):
            pa, pb = hits[a][4], hits[b][4]
            if math.hypot(pa.x - pb.x, pa.y - pb.y) < 1e-12 * max(scale, 1.0):
                raise DegenerateDiagramError("multiple crossings coincide at one point")
    return segs, hits


def crossing_outcome(search, vertices):
    """A crossing search's hits as text, or the class and message it raised.

    ``scale`` is taken as extraction takes it, the largest coordinate
    magnitude.  Hits given as the six parallel lists (i, t, j, s, x, y) of
    ``knot_id._find_crossings`` are written as the oracle's list of
    (i, t, j, s, Point) first, so that every float is compared by repr.
    """
    try:
        hits = search(vertices, max(max(abs(v.x), abs(v.y)) for v in vertices))[1]
    except DegenerateDiagramError as exc:
        return type(exc), str(exc)
    if isinstance(hits, tuple):
        assert len(hits) == 6 and len({len(column) for column in hits}) == 1
        his, ts, hjs, ss, xs, ys = hits
        hits = [(i, t, j, s, Point(x, y)) for i, t, j, s, x, y in zip(his, ts, hjs, ss, xs, ys)]
    return repr(hits)


def all_groups_collinear(centerline, scale: float):
    """Indices of segments sharing a supporting line, in strand order.

    The reference for ``knot_id._collinear_groups``: each segment is
    compared with the leading segment of every group made so far.
    """
    keys = []
    for (a, b) in centerline:
        ux, uy = b.x - a.x, b.y - a.y
        norm = math.hypot(ux, uy)
        keys.append(_canonical_line(a, ux / norm, uy / norm))
    groups = []
    tol_d = 1e-9 * max(scale, 1.0)
    for i, (nx, ny, d) in enumerate(keys):
        for group in groups:
            gx, gy, gd = keys[group[0]]
            if abs(nx * gy - ny * gx) >= 1e-9:
                continue
            dd = d - gd if nx * gx + ny * gy > 0 else d + gd
            if abs(dd) < tol_d:
                group.append(i)
                break
        else:
            groups.append([i])
    return [g for g in groups if len(g) > 1]


def all_pairs_partners(dxs, dys, window: float) -> List[int]:
    """Per segment, a bit mask of the others whose direction is within
    ``window`` of its own mod pi.

    The reference for ``knot_id._parallel_partners``: every pair is
    compared by the angle between its two lines, atan2(|u x v|, u . v)
    folded onto [0, pi/2], with no sort and no wrap past pi.
    """
    m = len(dxs)
    partners = [0] * m
    for i in range(m):
        for j in range(i + 1, m):
            cross = dxs[i] * dys[j] - dys[i] * dxs[j]
            dot = dxs[i] * dxs[j] + dys[i] * dys[j]
            angle = math.atan2(abs(cross), dot)
            if min(angle, math.pi - angle) <= window:
                partners[i] |= 1 << j
                partners[j] |= 1 << i
    return partners


def snapped_boundary_angle(seg, side, orientation: int) -> ExactAngle:
    """Strip angle of a boundary line measured from a centerline segment,
    the vector of a panel side and the panel's winding sign: atan2 of
    the turn between them, snapped by ``ExactAngle.from_float`` at the
    1e-11 rad that ``unfold`` uses, afresh for every line."""
    ux, uy = seg[1][0] - seg[0][0], seg[1][1] - seg[0][1]
    vx, vy = side
    if math.hypot(ux, uy) < 1e-15 or math.hypot(vx, vy) < 1e-15:
        raise InconsistencyError("degenerate segment while recovering an angle")
    phi = math.atan2(ux * vy - uy * vx, ux * vx + uy * vy)
    theta = (orientation * phi) % math.pi
    if theta < 1e-12 or math.pi - theta < 1e-12:
        raise InconsistencyError("boundary line is parallel to the centerline")
    return ExactAngle.from_float(theta, tolerance=1e-11)


_ALONG_X = (Point(0.0, 0.0), Point(1.0, 0.0))


def _outcome(measure, theta: float):
    try:
        return measure(_ALONG_X, (math.cos(theta), math.sin(theta)), 1)
    except RibbonError as exc:
        return (type(exc), str(exc))


def boundary_outcomes(theta: float, memo: list):
    """(memoized, oracle) for a boundary line at theta to a centerline along
    +x: what ``_recovered_angle`` with ``memo`` and what
    ``snapped_boundary_angle`` give, each an ExactAngle or the type and
    message of the error raised."""
    memoized = _outcome(lambda seg, side, sign: _recovered_angle(seg, side, sign, memo), theta)
    return memoized, _outcome(snapped_boundary_angle, theta)


def farey_memo(k: int, n: int) -> list:
    """An ``unfold`` angle memo holding, as measuring them puts them, the
    neighbours of the reduced k/n in the Farey sequence of order 10**4 that
    lie strictly between 0 and 1: a/b with k*b - n*a = 1 and c/d with
    n*c - k*d = 1, each with the largest denominator up to 10**4."""
    order = 10**4
    if n == 1:
        neighbours = [(k * order - 1, order), (k * order + 1, order)]
    else:
        inverse = pow(k, -1, n)
        b = inverse + n * ((order - inverse) // n)
        d = (n - inverse) + n * ((order - (n - inverse)) // n)
        neighbours = [((k * b - 1) // n, b), ((k * d + 1) // n, d)]
    memo: list = []
    for a, b in neighbours:
        if 0 < a < b:
            boundary_outcomes(a / b * math.pi, memo)
    return memo


def _oracle_real(value, what: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise MalformedProgramError("%s must be a number" % what)
    try:
        return float(value)
    except OverflowError:
        return math.inf


def _oracle_radians(angle) -> float:
    # the float of the reduced fraction, divided here rather than read back
    return angle.numerator / angle.denominator * math.pi


def crease_oracle(position, angle, layer_shift=1) -> tuple:
    """The (position, angle, layer_shift) a CreaseSpec stores, or its error."""
    pos = _oracle_real(position, "crease position")
    if not math.isfinite(pos) or pos <= 0.0:
        raise MalformedProgramError("crease position must be finite and positive")
    if not isinstance(angle, ExactAngle):
        raise MalformedProgramError("crease angle must be an ExactAngle")
    if not 0.0 < _oracle_radians(angle) < math.pi:
        raise MalformedProgramError("crease angle must lie strictly between 0 and pi")
    if isinstance(layer_shift, bool) or not isinstance(layer_shift, int):
        raise MalformedProgramError("layer_shift must be an integer")
    if layer_shift == 0:
        raise MalformedProgramError("layer_shift must be nonzero")
    return (pos, angle, layer_shift)


def cut_oracle(position, angle=ExactAngle(1, 2)) -> tuple:
    """The (position, angle) a CutSpec stores, or its error."""
    pos = _oracle_real(position, "cut position")
    if not math.isfinite(pos):
        raise MalformedProgramError("cut position must be finite")
    if not isinstance(angle, ExactAngle):
        raise MalformedProgramError("cut angle must be an ExactAngle")
    if not 0.0 < _oracle_radians(angle) < math.pi:
        raise MalformedProgramError("cut angle must lie strictly between 0 and pi")
    return (pos, angle)


def spec_outcome(make, *args):
    """("ok", fields with their types) or (error class, message) of one call;
    ``make`` is an oracle or a constructor, whose fields are read back."""
    try:
        value = make(*args)
    except RibbonError as exc:
        return type(exc), str(exc)
    fields = value if isinstance(value, tuple) else (
        tuple(getattr(value, name) for name in type(value).__dataclass_fields__)
    )
    return "ok", tuple((type(field), field) for field in fields)
