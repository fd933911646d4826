"""Reference values the benchmark checks ribbonfold's outputs against.

Everything here is computed from the paper's formulas with the standard
library only; nothing imports ribbonfold, so a fault in the package
cannot hide by agreeing with itself.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

COT_PI_5 = 1.0 / math.tan(math.pi / 5.0)
RECT_74_ALEXANDER = [4, -7, 4]
RECT_74_RATIO = 24.0
RECT_74_CROSSING_NUMBER = 7
# panel (and centerline segment) counts of the members that follow no star
PANELS = {"short_52": 7, "short_72": 9, "rect_74": 16}


def torus_type(tag: str, n: Optional[int]) -> Optional[Tuple[int, int]]:
    """Torus knot (p, q) a member ties; None for the 7_4 rectangle."""
    if tag == "odd_wrap":
        return (n + 1, n)
    if tag == "star_polygon":
        return (n, 2)
    if tag == "pinwheel":
        return (2 * n + 1, n)
    if tag == "even_wrap_plus2":
        return (2 * n + 2, n)
    if tag == "even_wrap_plus4":
        return (2 * n + 4, n)
    if tag == "short_52":
        return (5, 2)
    if tag == "short_72":
        return (7, 2)
    return None


def star_shape(tag: str, n: Optional[int]) -> Optional[Tuple[int, int]]:
    """(vertex count, step) of the {n/k} star the centerline follows."""
    if tag in ("odd_wrap", "pinwheel"):
        return (2 * n + 1, n)
    if tag == "star_polygon":
        return (n, 2)
    if tag == "even_wrap_plus2":
        return (2 * n + 2, n)
    if tag == "even_wrap_plus4":
        return (2 * n + 4, n)
    return None


def closed_form(tag: str, n: Optional[int], presentation: str = "closed") -> float:
    """Length-to-width ratio from the paper's cotangent formulas.

    For the two short variants this is the epsilon -> 0 limit.
    """
    if tag == "odd_wrap":
        m = 2 * n + 1
        count = 2 * n if presentation == "truncated" else m
        return count / math.tan(math.pi / m)
    if tag == "star_polygon":
        return n / math.tan(math.pi / n)
    if tag == "pinwheel":
        m = 2 * n + 1
        return m / math.tan(math.pi / (2 * m))
    if tag in ("even_wrap_plus2", "even_wrap_plus4"):
        m = 2 * n + (2 if tag == "even_wrap_plus2" else 4)
        return m / math.tan(math.pi / m)
    if tag == "short_52":
        return 7.0 * COT_PI_5
    if tag == "short_72":
        return 9.0 * COT_PI_5
    if tag == "rect_74":
        return RECT_74_RATIO
    raise ValueError("unknown family tag %r" % tag)


def torus_crossing_number(p: int, q: int) -> int:
    return min(p * (q - 1), q * (p - 1))


def crossing_number(tag: str, n: Optional[int]) -> int:
    """Crossing number of the knot a member ties."""
    knot = torus_type(tag, n)
    return RECT_74_CROSSING_NUMBER if knot is None else torus_crossing_number(*knot)


def crossing_range(tag: str, n: Optional[int]) -> Tuple[int, int]:
    """Bounds on the crossing count of a member's extracted diagram.

    Below: the knot's crossing number.  Above: n(k-1), the double points
    of the {n/k} star the centerline follows, or, for the members that
    follow no star, the number of non-adjacent segment pairs.
    """
    low = crossing_number(tag, n)
    shape = star_shape(tag, n)
    if shape is None:
        high = PANELS[tag] * (PANELS[tag] - 3) // 2
    else:
        high = shape[0] * (shape[1] - 1)
    return low, high


def crease_fractions(tag: str, n: Optional[int]) -> Optional[Tuple[Fraction, Fraction]]:
    """The two crease angles k*pi/n and (n-k)*pi/n, as multiples of pi."""
    if tag == "rect_74":
        return (Fraction(1, 4), Fraction(3, 4))
    shape = star_shape(tag, n)
    if shape is None:
        return None
    m, k = shape
    return (Fraction(k, m), Fraction(m - k, m))


# ------------------------------------------------------------ polynomials


def _poly_mul(a: List[int], b: List[int]) -> List[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _poly_div_monic(a: List[int], b: List[int]) -> List[int]:
    """Exact quotient a / b for a monic b (ascending coefficients)."""
    rem = list(a)
    db = len(b) - 1
    out = [0] * (len(a) - db)
    for k in range(len(out) - 1, -1, -1):
        c = rem[k + db]
        out[k] = c
        if c:
            for j, y in enumerate(b):
                rem[k + j] -= c * y
    if any(rem):
        raise ArithmeticError("division left a remainder")
    return out


def _t_power_minus_one(k: int) -> List[int]:
    return [-1] + [0] * (k - 1) + [1]


def torus_alexander(p: int, q: int) -> List[int]:
    """(t^{pq}-1)(t-1) / ((t^p-1)(t^q-1)), ascending coefficients."""
    num = _poly_mul(_t_power_minus_one(p * q), _t_power_minus_one(1))
    return normalize_poly(
        _poly_div_monic(_poly_div_monic(num, _t_power_minus_one(p)),
                        _t_power_minus_one(q)))


def normalize_poly(coeffs: Sequence[int]) -> List[int]:
    """Strip zero ends and make the lowest term positive (t^k and sign)."""
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    while out and out[0] == 0:
        out.pop(0)
    if out and out[0] < 0:
        out = [-c for c in out]
    return out


def same_up_to_mirror(got: Sequence[int], want: Sequence[int]) -> bool:
    g = normalize_poly(got)
    return g == normalize_poly(want) or g == normalize_poly(list(reversed(want)))


def poly_at_minus_one(coeffs: Sequence[int]) -> int:
    return abs(sum(c * (-1) ** e for e, c in enumerate(coeffs)))


def poly_from_exponents(terms: Dict[int, int]) -> List[int]:
    low = min(terms)
    out = [0] * (max(terms) - low + 1)
    for e, c in terms.items():
        out[e - low] = c
    return out


# ----------------------------------------------------------- Gauss codes


def gauss_problem(gauss: Sequence[Sequence]) -> Optional[str]:
    """Why a signed Gauss code is not a knot diagram, or None if it is.

    Each crossing is visited twice, once over and once under, with one
    sign; Gauss's parity condition asks for an even number of entries
    between the two visits.
    """
    visits: Dict[int, List[Tuple[int, bool, int]]] = {}
    for pos, (cid, over, sign) in enumerate(gauss):
        if sign not in (-1, 1):
            return "crossing %s has sign %r" % (cid, sign)
        visits.setdefault(cid, []).append((pos, bool(over), sign))
    if not visits:
        return "empty Gauss code"
    for cid, seen in visits.items():
        if len(seen) != 2:
            return "crossing %s visited %d times" % (cid, len(seen))
        (p1, o1, s1), (p2, o2, s2) = seen
        if o1 == o2:
            return "crossing %s lacks an over/under pair" % cid
        if s1 != s2:
            return "crossing %s has two signs" % cid
        if (p2 - p1 - 1) % 2:
            return "crossing %s breaks Gauss parity" % cid
    return None
