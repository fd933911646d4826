"""Layout and unfold outputs pinned bit for bit.

The digests hash every float that ``layout`` and ``unfold`` produce, by
its exact repr, so a change to the fold kernel that reorders or
shortens any floating-point operation fails here even when every
tolerance-based test still passes.
"""

import hashlib
import json
import math
import random
from fractions import Fraction

import pytest

from ribbonfold import ExactAngle, FamilyId, build, layout, unfold

# (family, presentation, epsilon): one member of each family and
# presentation, both shorts at a fixed epsilon, and the largest star the
# benchmark lays out
MEMBERS = [
    (FamilyId("odd_wrap", 7), "closed", None),
    (FamilyId("odd_wrap", 7), "truncated", None),
    (FamilyId("odd_wrap", 40), "closed", None),
    (FamilyId("odd_wrap", 40), "truncated", None),
    (FamilyId("star_polygon", 31), "closed", None),
    (FamilyId("star_polygon", 1001), "closed", None),
    (FamilyId("pinwheel", 10), "closed", None),
    (FamilyId("even_wrap_plus2", 9), "closed", None),
    (FamilyId("even_wrap_plus4", 9), "closed", None),
    (FamilyId("short_52"), "closed", 1e-3),
    (FamilyId("short_72"), "closed", 3e-3),
    (FamilyId("rect_74"), "closed", None),
]


def member_id(member):
    family, presentation, epsilon = member
    parts = [family.tag, family.parameter, presentation, epsilon]
    return "-".join(str(part) for part in parts if part is not None)


def program_of(member):
    family, presentation, epsilon = member
    if epsilon is None:
        return build(family, presentation=presentation)
    return build(family, presentation=presentation, epsilon=epsilon)


def layout_digest(lay):
    # json.dumps writes each float by repr, which round-trips exactly
    # and keeps the sign of zero
    doc = {
        "panels": [
            [panel.index, panel.layer, [list(v) for v in panel.vertices]]
            for panel in lay.panels
        ],
        "centerline": [[list(a), list(b)] for a, b in lay.centerline],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def unfold_digest(lay):
    return hashlib.sha256(unfold(lay).to_json().encode()).hexdigest()


# (layout_digest, unfold_digest).  The unfold digests come from the kernel
# that turned each angle into a Fraction and composed one isometry object
# per crease; the layout digests, of vertices and centerline only, from
# the six-float kernel that reproduced it.  Outputs must match both.
PINNED = {
    "odd_wrap-7-closed": (
        "a2dc7b7adf6800ed7c1d35359622cb282fedbf02373391f098ed7f2e5fe5fb30",
        "ef7b06aa11bb68e540399590d375dd1a1b11850b937fe2b51d0af6e00cdce199"),
    "odd_wrap-7-truncated": (
        "3d558f5c4d09ebf5c9d7b9496b7aaacd5c3e5639d74d9ed3e67ede280ffd48a0",
        "9bca4aafa9fdf9cbb236f76db939d5d6b26e0d76219b83522378c9731bbfa350"),
    "odd_wrap-40-closed": (
        "a8c745f721dae7a02db1ab209506e4940b76e4d533db0a857fd3d99c57404df3",
        "cbe7a624528b27a686113e2134627a22380fb5ec503b3e94ae892518673c2409"),
    "odd_wrap-40-truncated": (
        "aaffdaabcc1f16043da32836d602d4c9b7e566ac618e01d979a5655d8bfe07cd",
        "de95322db9f18d6bb00c9f9105b2e3ec1f446b213e0992b37afc3f23be468f43"),
    "star_polygon-31-closed": (
        "f8ab10e21a0621cf68a485a11e8308a1f1f2042de714efe0b12be9774795c132",
        "96af4935cf824eeae25e28e701410fabee211130c1492bbf9e335a9e5018c0d9"),
    "star_polygon-1001-closed": (
        "d56721895a7cad5eb28f8641e96fcd778796732b0a8b847026a2d921ead8ae90",
        "37e2d2f0ea2fe31c5ffc720153748aeecfdd8d99c5c24ac82d8f7b019fc02e38"),
    "pinwheel-10-closed": (
        "5cff7e47cef92b6a73de38aada7f2307ee5da001baf98bbc08b47e15b9a897a9",
        "5dd037973aa0c6c508e84695f2fb303eb3381df74ed7d7cfa0ad343186cde841"),
    "even_wrap_plus2-9-closed": (
        "6a4de6c609d69e497fdcdadf03b820f1e19188ee1bb2db536c8b4d2e15834581",
        "7b932a7adb2b11b4afa9f99b3d34952b17447191a96a0c0bf62b8f63606f23c3"),
    "even_wrap_plus4-9-closed": (
        "b52f868cd19350bcb9010e8194cde820761b110bedd15f5c0053e4ce03f186b0",
        "4262f3e537b84401cea814e388b5c9546cf190d00673f3f01230a874c8670b33"),
    "short_52-closed-0.001": (
        "bd8e471b78702caa56dc28a04845b212b9fb8455d3a7da909e825d37f81c03c7",
        "407ca385fb05f68262d1da8353824c6f12f7aaadfb235b001c66866e2a067235"),
    "short_72-closed-0.003": (
        "60922cfa0586b87c8daf1406db9f7064ab0af5ef24444e8c1b0f3cdafa070959",
        "0cc9c9b657018c5138797f35cdcb1cc9a2dd2b86e4294d9aeae25d864b69fb6f"),
    "rect_74-closed": (
        "ca021d5d6a4da66a4d7cf8becea7ff4e5b16d55da90593ff7784745f533faea9",
        "4848d33508626be3efe6fc76b124369657d735f4606564c2e4eb275ea8ba23ef"),
}


@pytest.mark.parametrize("member", MEMBERS, ids=member_id)
def test_layout_pinned(member):
    assert layout_digest(layout(program_of(member))) == PINNED[member_id(member)][0]


@pytest.mark.parametrize("member", MEMBERS, ids=member_id)
def test_unfold_pinned(member):
    assert unfold_digest(layout(program_of(member))) == PINNED[member_id(member)][1]


def test_radians_is_the_float_of_the_fraction_times_pi():
    rng = random.Random(20261018)
    pairs = [(1, 2), (1, 3), (2, 3), (1, 10**400), (10**400 - 1, 10**400),
             (3, 7 * 10**400 + 1), (2**1100 + 1, 2**1101 - 1), (1, 2**1074 + 1)]
    for _ in range(2000):
        den = rng.choice([rng.randint(1, 50), rng.randint(1, 10**4), rng.randint(1, 10**12),
                          rng.randint(1, 10**30)])
        pairs.append((rng.randint(-4 * den, 4 * den), den))
    for n in (3, 7, 101, 1001, 20001):
        pairs += [(k, n) for k in range(1, n, max(1, n // 50))]
    for num, den in pairs:
        angle = ExactAngle(num, den)
        want = float(Fraction(angle.numerator, angle.denominator)) * math.pi
        assert angle.radians == want, (num, den)
