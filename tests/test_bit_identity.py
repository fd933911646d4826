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
            [panel.index, panel.layer, [list(v) for v in panel.vertices],
             [panel.placement.a, panel.placement.b, panel.placement.tx,
              panel.placement.c, panel.placement.d, panel.placement.ty]]
            for panel in lay.panels
        ],
        "centerline": [[list(a), list(b)] for a, b in lay.centerline],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def unfold_digest(lay):
    return hashlib.sha256(unfold(lay).to_json().encode()).hexdigest()


# (layout_digest, unfold_digest), taken from the kernel that turned each
# angle into a Fraction and composed one Isometry per crease, which these
# outputs must match bit for bit
PINNED = {
    "odd_wrap-7-closed": (
        "e6d9c4fbd4275f3b143b0143491e6dabf636b36384115b4baa2900be9119c943",
        "ef7b06aa11bb68e540399590d375dd1a1b11850b937fe2b51d0af6e00cdce199"),
    "odd_wrap-7-truncated": (
        "3bf9081662c5496382385c1c99af4c61aba4ad00b695ccac614c99006d1a562d",
        "9bca4aafa9fdf9cbb236f76db939d5d6b26e0d76219b83522378c9731bbfa350"),
    "odd_wrap-40-closed": (
        "3b052a8df52ee7c81c7b9eba141e4cf4b65847a557c4b4fe4406491d5cded542",
        "cbe7a624528b27a686113e2134627a22380fb5ec503b3e94ae892518673c2409"),
    "odd_wrap-40-truncated": (
        "5c70a906e61fd35d2ae7f600459431e3ce32bd78a8faa4f171182b7bfec83990",
        "de95322db9f18d6bb00c9f9105b2e3ec1f446b213e0992b37afc3f23be468f43"),
    "star_polygon-31-closed": (
        "4e86461b68bfe4d3dc64e6062cfc3b2748a576bffa284c61f329de51c798e0ba",
        "96af4935cf824eeae25e28e701410fabee211130c1492bbf9e335a9e5018c0d9"),
    "star_polygon-1001-closed": (
        "8ce7a8cacd4ca8145fe6df524531b3282389419cfaa4acf5f0a24f2bce96ea9b",
        "37e2d2f0ea2fe31c5ffc720153748aeecfdd8d99c5c24ac82d8f7b019fc02e38"),
    "pinwheel-10-closed": (
        "291247ba78b86dc925f453bc9b2b166531c57b3203fb084a23ab39d316432d8f",
        "5dd037973aa0c6c508e84695f2fb303eb3381df74ed7d7cfa0ad343186cde841"),
    "even_wrap_plus2-9-closed": (
        "42bdd43936e328473228aa9cae64d0ab1bf290ecbaab077cd7780dd645217efc",
        "7b932a7adb2b11b4afa9f99b3d34952b17447191a96a0c0bf62b8f63606f23c3"),
    "even_wrap_plus4-9-closed": (
        "90293e6e6103a5cd4f69a6e74231e33e1a419188dff1a6032f4a347c53034b47",
        "4262f3e537b84401cea814e388b5c9546cf190d00673f3f01230a874c8670b33"),
    "short_52-closed-0.001": (
        "e801d813339c2df2beca92244b5d0e41c350b87174c34ef4e6b2fd772393c522",
        "407ca385fb05f68262d1da8353824c6f12f7aaadfb235b001c66866e2a067235"),
    "short_72-closed-0.003": (
        "9d8b765a1fe78678c003e5ced26ba71f03bce59c56d08b73a96a37c032e49bd9",
        "0cc9c9b657018c5138797f35cdcb1cc9a2dd2b86e4294d9aeae25d864b69fb6f"),
    "rect_74-closed": (
        "08acd9025ce45b302ba2dfe94cc646061f5ab7115f1caff0bbeda1f4347c9500",
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
