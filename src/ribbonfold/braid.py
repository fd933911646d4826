"""Standard closed-braid diagrams of torus knots, and an exact match
against them.

The closure of the s-strand braid (s_1 s_2 ... s_{s-1})^k, with
s = min(p, q) strands and k = max(p, q), is the torus knot T(p, q).  Its
diagram has k(s - 1) crossings.  ``standard_torus_code`` writes it with
every crossing positive in the sign convention of ``knot_id`` (+1 when
over x under > 0), which is the right-handed T(p, q).

``torus_handedness`` decides, in time linear in the crossing count,
whether a signed Gauss code is that diagram or its mirror image, up to
relabelling the crossings, rotating the code and reversing the strand.
A signed Gauss code of a planar diagram determines its knot, so a match
proves the knot type, handedness included.  Anything else gets no
verdict here.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

from .errors import InvalidInputError

__all__ = ["standard_torus_code", "torus_handedness"]


def _check_torus(p: int, q: int) -> None:
    for v in (p, q):
        if isinstance(v, bool) or not isinstance(v, int) or v < 2:
            raise InvalidInputError("torus parameters must be integers >= 2")
    if math.gcd(p, q) != 1:
        raise InvalidInputError("torus knot parameters must be coprime")


def standard_torus_code(p: int, q: int) -> List[Tuple[int, bool, int]]:
    """Signed Gauss code of the closure of (s_1 ... s_{s-1})^k.

    s = min(p, q) and k = max(p, q) are coprime ints >= 2.  With the
    strands running upward, letter s_i carries the strand in position i - 1
    over the one in position i, and the two swap places; both head up and
    the over strand heads right, so every crossing is positive.  Crossing
    ids count the letters of the word from 0.
    """
    _check_torus(p, q)
    s, k = min(p, q), max(p, q)
    # the strand at each position, and each strand's passages in order
    at = list(range(s))
    passages = [[] for _ in range(s)]
    letter = 0
    for _ in range(k):
        for i in range(1, s):
            left, right = at[i - 1], at[i]
            passages[left].append((letter, True, 1))
            passages[right].append((letter, False, 1))
            at[i - 1], at[i] = right, left
            letter += 1
    # the strand that ends in position i goes on as the one that starts there
    ends = [0] * s
    for position, strand in enumerate(at):
        ends[strand] = position
    code = []
    strand = 0
    for _ in range(s):
        code += passages[strand]
        strand = ends[strand]
    return code


def _passage_values(code: Sequence[Tuple[int, bool, int]]) -> List[int]:
    """The code without its labels: per passage, 4 * (offset to the other
    passage of its crossing, mod the code length) + 2 * over + (sign > 0)."""
    n = len(code)
    values = [2 * over + (sign > 0) for _, over, sign in code]
    first = {}
    for i, entry in enumerate(code):
        j = first.setdefault(entry[0], i)
        if j != i:
            values[j] += 4 * (i - j)
            values[i] += 4 * (n - i + j)
    return values


def _text(values: List[int]) -> str:
    # commas on both sides make a match start and end on whole values
    return "," + ",".join(map(str, values)) + ","


def torus_handedness(gauss: Sequence[Tuple[int, bool, int]], p: int, q: int) -> Optional[int]:
    """+1 if ``gauss`` is the standard diagram of T(p, q), -1 if it is its
    mirror image, None if it is neither.

    ``gauss`` is a valid signed Gauss code, as ``KnotDiagram.gauss`` holds;
    p and q are as ``standard_torus_code`` takes them; bad ones raise its
    InvalidInputError first, whatever the code's length.  Nothing is built
    unless the code has the standard diagram's k(s - 1) crossings.  The
    code matches when its label-free passages (``_passage_values``) are a
    cyclic shift of the standard diagram's: a substring test on the
    doubled standard sequence.  The mirror image flips every over flag and
    every sign.  A code read backward needs no test of its own, because
    the standard diagram is its own reverse: turning the braid's annulus
    inside out (z -> 1/z on the sphere, which reverses the direction round
    it) and then reversing the strand keeps every sign, and gives the
    closure of the word read backward with s_i renamed s_{s-i}, which is
    the same word.  So a reversed standard code is a rotation of it, up to
    labels.
    """
    _check_torus(p, q)
    s, k = min(p, q), max(p, q)
    if len(gauss) != 2 * k * (s - 1):
        return None
    standard = _passage_values(standard_torus_code(p, q))
    doubled = _text(standard + standard)
    values = _passage_values(gauss)
    if _text(values) in doubled:
        return 1
    if _text([v ^ 3 for v in values]) in doubled:
        return -1
    return None
