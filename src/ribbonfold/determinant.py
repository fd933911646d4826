"""Exact arithmetic and determinants over Z[t].

An Alexander polynomial is a first minor of a knot diagram's crossing/arc
matrix, whose entries are integer polynomials of degree at most one.
``knot_id`` builds that minor, and ``_unit_pivot_det`` takes its
determinant: sparse elimination on its +-1 entries, then fraction-free
elimination over Z[t] (``_poly_bareiss``) of the block they leave.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Sequence, Tuple

from .errors import InconsistencyError


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

    Every entry is listed as nonzero terms once, on entry.  Each step
    pivots on the remaining nonzero entry with the fewest terms, ties to
    the lowest row and then column (Markowitz's sparsity rule), and swaps
    it into place, each swap flipping the sign; a block with no nonzero
    entry left has determinant 0.  A step forms each numerator
    m[i][j] * pivot - m[i][k] * m[k][j] in a dense list that spans only
    its own exponents, and divides it exactly by the previous pivot.
    """
    n = len(matrix)
    if n == 0:
        return [1]
    m = [[_terms(v) for v in row] for row in matrix]
    sign = 1
    prev = [(0, 1)]
    for k in range(n - 1):
        size, r, col = min(((len(v), i, j) for i in range(k, n)
                            for j, v in enumerate(m[i][k:], k) if v), default=(0, 0, 0))
        if not size:
            return []
        if r != k:
            m[k], m[r] = m[r], m[k]
            sign = -sign
        if col != k:
            for row in m[k:]:
                row[k], row[col] = row[col], row[k]
            sign = -sign
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

    ``rows`` map column -> ascending coefficient list with no zero entries;
    elimination changes them in place.  It pivots only on constant
    entries +-1, chosen by Markowitz cost (row nnz - 1) * (col nnz - 1)
    with ties to the lowest (row, col).
    Dividing by a unit is exact, and units and row/column order change the
    determinant only by a sign.  Each pivot lists the nonzero terms of its
    row's entries once, and each row it changes those of its factor once.
    The block left when no unit pivot remains goes to fraction-free
    elimination.
    """
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
