"""Layout, unfold, JSON and SVG outputs pinned bit for bit.

The digests hash every float that ``layout`` and ``unfold`` produce, by
its exact repr, so a change to the fold kernel that reorders or
shortens any floating-point operation fails here even when every
tolerance-based test still passes.  The SVG digests pin the bytes of
``to_svg`` under four option sets, and ``FoldProgram.to_json``, which
writes its document by hand, is compared byte for byte with
``json.dumps``.  For every member of the benchmark's knot workload, the
extracted Gauss code and crossing records are pinned, and so is the
Alexander polynomial of every member it certifies; each star's code is
also checked to be the exact mirror of the one it had under the
"alternating" weave that the stars once used.
"""

import hashlib
import json
import math
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
    RenderOptions,
    build,
    centerline_length,
    layout,
    to_svg,
    unfold,
)
from ribbonfold.knot_id import KnotDiagram, alexander_polynomial, extract_diagram

from diagram_sources import snapped_boundary_angle

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
# the six-float kernel that reproduced it.  Outputs must match both.  The
# stars' unfold digests changed with their weave string alone, as
# test_star_unfold_is_the_alternating_one_but_for_its_weave shows.
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
        "c7239b391a13e03fb6960a6a99810e6aa9d950f83f9dcdf0206f2dba187a7ad9"),
    "star_polygon-1001-closed": (
        "d56721895a7cad5eb28f8641e96fcd778796732b0a8b847026a2d921ead8ae90",
        "21693193d3fb9adb0e84b4406bde9f5a7cc78ab7be14806dca481a0eda2301b3"),
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


SVG_OPTIONS = (
    RenderOptions(),
    RenderOptions(epsilon_display=0.013, show_circumcircle=True, show_centerline=True),
    RenderOptions(show_creases=False),
    RenderOptions(scale=1.0),
)

# SHA-256 of to_svg under each of SVG_OPTIONS, in order, from the renderer
# that formatted every coordinate through its own helper call
SVG_PINNED = {
    "odd_wrap-7-closed": (
        "e36b51fa80edd6f53a3f9c54e580dfeb42ad81d5f8ca45e133fb7289266400ff",
        "f4e56831e5e0266301618c06f48bf5c38e9d5d7acaab0f5e02bf73b8beaecc30",
        "ea0543cf22b7ec067dcea4e27cbc327764820cef413ab00433a9d652aade42b9",
        "fa992ce9c0ea031d308312797b0bfd293838053296ae7dbd6c00a88f44c057c7"),
    "odd_wrap-7-truncated": (
        "314062b0a8b401373eee44fcf28b517c2c11280cd3f1dad18e4a5551e1f9d4e6",
        "749107f0681dfd90c53be656f79eeb09d2bebf7ea7c07ae8e6457ba1443550cd",
        "2ce3864cc5e5d91ba52b0a4e3a15131e8394e8f325dc5f520fd3fad7cade1986",
        "87d555d53e4bd13268c0b5fbfed31666430dea2edd10cde4b3585cf63709bf66"),
    "odd_wrap-40-closed": (
        "e5813f14f57e940b76017397d6a0f7ebf0ef5e1efeb6e7a4347b9d2bee1046a1",
        "eddd88d32690d8478150034f4d4fcba7699c5b6ef022df2c179ff0ba928b9029",
        "438c06f96e48383ef9fc087ac9d9ff6f235a61a622da09adaf1a3be679d90291",
        "bd35e1a76855634b3df72299570c58b08705acd247b0708c95a3c8b703ced7c7"),
    "odd_wrap-40-truncated": (
        "bbefe3d554250f9077ebee6ff5f23da246407a81c2c332d34bf47c9b4210fed9",
        "bb4b1ae49dae4c7f535c2d03795d03de9f0614f87ad86931745873e85aa815fc",
        "ad341681921e248955a63c36b6a39c2fc6069dbf053eeb604691ebcde2f0c9fc",
        "ff6a2daf1223a059b4d3cc2a5513e1fe7c61efed73a5a6a6847b3e7e415b9d38"),
    "star_polygon-31-closed": (
        "878dfddb350b13fc1500736ae8d3c201f1be3ab02ce3860973661b3b04174567",
        "92997c972b63e2638790d046ccac05da3c91a70e038463f3a4f47271de0910b0",
        "615ee121340a147be5639781793bd483c1dc26666ce402933f799fefff62630a",
        "38e77a888252631740da10e0bd7fbfc1749ca6a1345f07cb209dd992841321b8"),
    "star_polygon-1001-closed": (
        "0e67ba53fddf80212df06a5138f6a4045d1587a1f354ed51ca148262b4f8d2a8",
        "034bdf85e48f11313e410864f570ee0bb8915cda07282a6e0d27e33a98ac895a",
        "89cbab715e3d09caf7000dbf5c4e60c56b78cf2c8e312b746b15ca1850de03c7",
        "2369fc1716d0b293465e90e0b471ee152b7493e2abbdfa17dd4505601b3b7ebc"),
    "pinwheel-10-closed": (
        "43773fa325e6b477251e5a42f0115204e61e4e16aa3a92a53af0ec5e2ad046f8",
        "6e441d6cbd3a5113e49985a6ac231c11e9045780c5f4721a2bcfa9ba5e1e9191",
        "31737d7b665ce4e38e3996c3a37077f7851f34fb231e2b45ae851abd8c431888",
        "4fe39c83a31b8e5f3542cbe07cd6a305a08236deaf59ccaf8d1e46396bcbb85b"),
    "even_wrap_plus2-9-closed": (
        "4d61bce75ecc1adf16c4b2c722a78fddc760cce49f76f5c66762ad88f4132055",
        "4a8183c58586a9e8e9d77c9f3421b662bd98d5564cfd91f7a54628a159caca48",
        "72d04ea670f2d365fcb552410653b08e32b1c7648f023c772f780e96837b1d1e",
        "9a5d5201ad8d975b01f1fb1d64be3e31e2b7c7c7930f79ad387dba08837cc1ca"),
    "even_wrap_plus4-9-closed": (
        "6a1dedb7f9515886e3b1b1be9dbcd242f7313da5edcbf6b1dce96444e192df4c",
        "a979aecd250011e7e6c8fa26b439d4350d151fb16e53a6bf9a1af6f0110ea706",
        "b88d3f0a65068f27022d4d509ca74a65ea6d22a52fdb2d566697fa419120cb82",
        "f57ff60b7e9e0b98e1035050a069e56fa9ee6f15a9d86fc340d6e91079ea6b46"),
    "short_52-closed-0.001": (
        "7b0d1b3e87eb2964b0a487aab68477d13fe681778c2a11c0ae591166e8d1f11e",
        "c7a048762a300131b701ffba81019a0078bb13fb5b797b8f561a8954fcc75cc6",
        "957f4977840fcf9deec8d6f7adc69252fe3ae38f739ad300473764019deef54c",
        "d362060229011a37c033561236722bd108e3a8da19412e8498c31d69ef2b8ec1"),
    "short_72-closed-0.003": (
        "9dd133bb23f5a857571511315f0f90c364d506655de40fd345fadc112a3831b3",
        "af147fa604887194c7e2a5860b20ee7748e9e3862dd4ac4325a31dc17d07a0f5",
        "9e73c58b4bab7b3151bc99d6336f2a3083491e5f75a36e6bdfdc0c53e77193fb",
        "e021f1dca5c8c2e03f8f01790fdaa5495a3f3bfc0527f30aeff6d0e8657ccde9"),
    "rect_74-closed": (
        "c20cf996f7e791162980cf339730b458180f47f538c7f774e8e17d3d2f52dab7",
        "8e02ded624f651e2f562227f2b64990238b4e5838276ece0d5fdf20d80f93689",
        "c64c4844e61e38ea9642851631db25c2decba8bffc56ba408ccf1a1e36954b31",
        "46a8271a868ca5fc18748767014911e0e36648e56a3da6fe2d33472d19b7b3ec"),
}


@pytest.mark.parametrize("member", MEMBERS, ids=member_id)
def test_svg_pinned(member):
    lay = layout(program_of(member))
    got = tuple(hashlib.sha256(to_svg(lay, options).encode()).hexdigest()
                for options in SVG_OPTIONS)
    assert got == SVG_PINNED[member_id(member)]


def json_oracle(program):
    """The document that to_json writes, through json's own encoder."""
    doc = {
        "width": program.width,
        "presentation": program.presentation,
        "label": program.label,
        "creases": [
            {
                "position": c.position,
                "angle_num": c.angle.numerator,
                "angle_den": c.angle.denominator,
                "layer_shift": c.layer_shift,
            }
            for c in program.creases
        ],
    }
    for name in ("start_cut", "end_cut"):
        cut = getattr(program, name)
        if cut is not None:
            doc[name] = {
                "position": cut.position,
                "angle_num": cut.angle.numerator,
                "angle_den": cut.angle.denominator,
            }
    if program.weave is not None:
        doc["weave"] = program.weave
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def assert_json_matches_oracle(program):
    text = program.to_json()
    assert text == json_oracle(program)
    assert FoldProgram.from_json(text) == program


def geometry_families():
    """(family, presentation, epsilon) for each member that the benchmark's
    geometry workload builds, lays out, unfolds and serialises."""
    members = []
    for q in range(2, 61):
        members += [(FamilyId("odd_wrap", q), "closed", None),
                    (FamilyId("odd_wrap", q), "truncated", None)]
    members += [(FamilyId("pinwheel", q), "closed", None) for q in range(2, 51)]
    for q in range(3, 60, 2):
        members += [(FamilyId("even_wrap_plus2", q), "closed", None),
                    (FamilyId("even_wrap_plus4", q), "closed", None)]
    members += [(FamilyId("star_polygon", p), "closed", None) for p in range(7, 302, 2)]
    members += [(FamilyId("short_52"), "closed", 1e-3), (FamilyId("short_72"), "closed", 3e-3),
                (FamilyId("rect_74"), "closed", None)]
    # the closures past CLOSURE_TOLERANCE, and the largest star
    members += [(FamilyId(tag, n), "closed", None)
                for tag, n in (("odd_wrap", 74), ("pinwheel", 54), ("even_wrap_plus2", 77),
                               ("even_wrap_plus4", 79), ("star_polygon", 1001))]
    return members


def test_to_json_matches_json_dumps_on_geometry_members_and_their_unfolds():
    members = geometry_families()
    assert len(members) == 381
    unfolded = 0
    for member in members:
        program = program_of(member)
        assert_json_matches_oracle(program)
        try:
            lay = layout(program)
        except ClosureError:
            continue
        assert_json_matches_oracle(unfold(lay))
        unfolded += 1
    assert unfolded == 377


def test_centerline_length_is_the_fsum_of_hypot_on_geometry_members():
    measured = 0
    for member in geometry_families():
        try:
            lay = layout(program_of(member))
        except ClosureError:
            continue
        want = math.fsum(math.hypot(b[0] - a[0], b[1] - a[1]) for a, b in lay.centerline)
        assert centerline_length(lay).hex() == want.hex(), member_id(member)
        measured += 1
    assert measured == 377
    assert centerline_length(FoldedLayout((), ())) == 0.0


def side_vector(panel, k):
    a, b = panel.side(k)
    return (b[0] - a[0], b[1] - a[1])


def test_unfold_angles_are_from_float_of_each_measured_angle():
    # unfold snaps each distinct angle once; every crease and cut must
    # still be what from_float gives for its own measured angle
    unfolded = 0
    for member in geometry_families():
        try:
            lay = layout(program_of(member))
        except ClosureError:
            continue
        program = unfold(lay)
        panels, centerline = lay.panels, lay.centerline
        want = [snapped_boundary_angle(centerline[k], side_vector(panel, 1), panel.orientation)
                for k, panel in enumerate(panels)]
        if program.presentation == "closed":
            assert [c.angle for c in program.creases] == want
        else:
            assert [c.angle for c in program.creases] == want[:-1]
            assert program.end_cut.angle == want[-1]
            assert program.start_cut.angle == snapped_boundary_angle(
                centerline[0], side_vector(panels[0], 3), panels[0].orientation)
        unfolded += 1
    assert unfolded == 377


def test_to_json_matches_json_dumps_on_edge_cases():
    closed = (CreaseSpec(1.0, ExactAngle(1, 3), 1),
              CreaseSpec(2.0, ExactAngle(2, 3), -1))
    programs = [
        FoldProgram(1.0, closed, weave="torus"),
        FoldProgram(1.0, closed, label='say "hi" \\ back\tslash\x00\x1f\x7f caf\u00e9 \u6298\U0001f380'),
        FoldProgram(0.5, (), presentation="truncated",
                    start_cut=CutSpec(-2.5, ExactAngle(1, 3)), end_cut=CutSpec(4.0)),
        FoldProgram(
            5e-324,
            (CreaseSpec(5e-324, ExactAngle(1, 2), 7),
             CreaseSpec(2.2250738585072014e-308, ExactAngle(10**30 + 1, 3 * 10**30), -12),
             CreaseSpec(1e300, ExactAngle(2, 3), 1)),
            presentation="truncated",
            start_cut=CutSpec(-1e300, ExactAngle(1, 7)),
            end_cut=CutSpec(1.7976931348623157e308),
        ),
        FoldProgram(1e300, (CreaseSpec(1e300, ExactAngle(1, 2)),), presentation="truncated",
                    start_cut=CutSpec(-0.0), end_cut=CutSpec(2e300, ExactAngle(2, 5))),
    ]
    for program in programs:
        assert_json_matches_oracle(program)


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


# (family, presentation, epsilon) for each member of the benchmark's knot
# workload: the 37 it certifies, with the shorts at fixed epsilons, then
# the 6 it only extracts
KNOT_CERTIFY = (
    [(FamilyId(tag, q), "closed", None) for q in range(2, 6) for tag in ("odd_wrap", "pinwheel")]
    + [(FamilyId(tag, q), "closed", None)
       for q in (3, 5) for tag in ("even_wrap_plus2", "even_wrap_plus4")]
    + [(FamilyId("star_polygon", p), "closed", None) for p in range(7, 50, 2)]
    + [(FamilyId("short_52"), "closed", 1e-3), (FamilyId("short_72"), "closed", 3e-3),
       (FamilyId("rect_74"), "closed", None)]
)
KNOT_EXTRACT = [(FamilyId(tag, n), "closed", None)
                for tag, n in (("odd_wrap", 20), ("pinwheel", 20), ("even_wrap_plus2", 21),
                               ("even_wrap_plus4", 21), ("star_polygon", 401),
                               ("star_polygon", 1001))]


def diagram_digest(diagram):
    doc = {
        "gauss": [list(entry) for entry in diagram.gauss],
        "crossings": [[c.id, c.over_arc, c.under_in_arc, c.under_out_arc, c.sign]
                      for c in diagram.crossings],
    }
    return hashlib.sha256(json.dumps(doc).encode()).hexdigest()


def alexander_digest(delta):
    return hashlib.sha256(json.dumps(sorted(delta.coefficients.items())).encode()).hexdigest()


# (diagram_digest, alexander_digest) from the extraction that found each
# crossing's arcs with one bisect per crossing and the determinant that
# added every product through a separate sum; None where the workload
# only extracts.  The stars' diagram digests are of the torus weave, the
# mirror of the ones test_star_code_is_the_mirror_of_the_alternating_code
# keeps.
KNOT_PINNED = {
    "odd_wrap-2-closed": (
        "2d155016dd967f5a8de3a5aff848e991694088e240b249186d4b7bb9eaf65392",
        "f13e3f0c6239cd938457a7f3bf5086de6ca7e7b371ad0cb7e687cd6050b39bd6"),
    "pinwheel-2-closed": (
        "912cfa7e4e670f690a5de8d91083a164aa036b588583ce91264eaa4d0146eb3d",
        "8f90d56b8262683a9d23af7b810ba2c5d411e2142d64b3abd9ef1e9bff5165e6"),
    "odd_wrap-3-closed": (
        "0041823780ad582fe507bf0c4e20de796b9240c4b44f29607cb27c71ac1b7219",
        "1b94b6f5eb6b154d294d1be33ddf0e25225b16062725e41399b1a79b9a116006"),
    "pinwheel-3-closed": (
        "260449cbf0f397de86868ac04d54bc47316ea5708bebee8d32b42945494336d2",
        "0180e49e8c60bffb7a851dcdbe19c83cced382084de951f2b63052209466d305"),
    "odd_wrap-4-closed": (
        "287d048e1323dcb155b21d6110fabe9dca1ac99e47702e4bfa43109857ae8e5d",
        "de6ee7c583570b2acedac33b452281c545ba8c1d5986b61b9f54469496d2bf53"),
    "pinwheel-4-closed": (
        "9c07ee1f23bd2409623d7edc8ca0575bc460f0bb5cd473bc3e679808603bca29",
        "ab6368cc6264ef00c98a634235d1fba8c386dcaec292e81f09ab6194a1a67be1"),
    "odd_wrap-5-closed": (
        "a583b32b18f93750615b3ff775f31bb8e5adaaec0d69df97e0ba2581c9f26112",
        "d910b381031af88390e0ada3f4d6c62fb66f3feb6458f7a2c4f4a14e30f407f9"),
    "pinwheel-5-closed": (
        "4ad75854acf3a3dd8eb8793808ca933fbe04b7ba3fee4eebd72c62fdb04a2093",
        "433ac7da59769a7b7ad39ff3bd1f8dd85557c1c3af8ac0457db3b0388bc72204"),
    "even_wrap_plus2-3-closed": (
        "a8ad5a4f28997a663f0f6c03c8cbc99a15dd0c5067a9dbe8c42982fdc2805217",
        "b947c541a298dbd63b372bc7455bb1f2944de70303f0d24a58556a0b1050fcb2"),
    "even_wrap_plus4-3-closed": (
        "69012d4290cf3064c30a3df51d26b51817ed44557bdf7aae7fcaaaf4df177817",
        "236e37dfa1b851b5a00c5dba69ab5ecb028f9229cfe10bdb7cf9653b7d11cb66"),
    "even_wrap_plus2-5-closed": (
        "dd95f3149977c3415023bd8aa85496e7bb6ba9858310862309fcd7e9f370bccc",
        "7bf86eb7f1170da6b780bb65332ad3d3e52b4dff1bf58a9938d23828e4314ef3"),
    "even_wrap_plus4-5-closed": (
        "1a73c569468e30d1a5e9f8055811e00fe4c5d9df3af8ba3cb20a869423fcd9fe",
        "e751d107d4d9a3dfc49c2272f59680c0304ed4afcf19678f96e72ad541e84c48"),
    "star_polygon-7-closed": (
        "f99bad149721c1220de93f89f67f58e2287715bba6eb7973cf941d5508a76f1d",
        "7399c8364bc0789f8e838f6202e14ec01d6f67b3b5501811b358669c4e37c0bb"),
    "star_polygon-9-closed": (
        "6fd15c19695ff55f4bb9dd3efb33feaeebdf8ace14f43154ca5b71bece35641e",
        "6aab2fa0523a605a941404779fb2ecd0e9eda3d971411fc61b6f90878aac93d4"),
    "star_polygon-11-closed": (
        "02c2dd541458cf30eafc46607c02d72b865eede51c63e78c17431e44070db06b",
        "00e3523cb1f50b1c38a492fd2a7f7d5d77a165b2f6c02b4a2affb7856486b917"),
    "star_polygon-13-closed": (
        "35f6d9a23a2952024ad23a3db3659830341814243779d31836e3198760852cc6",
        "706a6ef7b0021e9bd3223264f9ad3b9d07c3d7c6b305fde0abd54c6890fd390d"),
    "star_polygon-15-closed": (
        "74490e778e4eda6047983b826cbdaf09c81c8fca9157fa05f8a32971f30866db",
        "72bd32f5d3212faa8e711f46381f8673822513e0190a61935f0a02b73fb42ba3"),
    "star_polygon-17-closed": (
        "2afbc4fede918dad778d5e9977419a35d5fafc66c00dcae2cc474f581bf05414",
        "67ed4b319317b6040b3246d891ea4518a46b5f1a978c19edc2e6564bd82cb2f5"),
    "star_polygon-19-closed": (
        "f3c763bdd9aa2b3327fee69b6dbd0dc794c41c1dfd2c5bc4f16baecae61275e6",
        "36a003202ed57e939d77b440d9ae33af799e6e712e7864355994b1dc95ee8529"),
    "star_polygon-21-closed": (
        "95bd2f8c25fecf4f41ce2430afe644810da893a79db9609b95d742126d77daec",
        "da62ed8dd7e996021669b9f194d821887e66e8a5229b16c904085a8a742fed07"),
    "star_polygon-23-closed": (
        "b54f84fd993a1d2c38bf96425195b5e493643d42b7dcaecac23cbf74e9efa625",
        "7591465b22c841305dab7e2309733ca191b58a1458b6032b1901f90d755e368f"),
    "star_polygon-25-closed": (
        "ff4d03dd9c1e60ab63b52caaa0614fb942372fc5dd4c904315851c8754bf9e8f",
        "d3efc5c69118e6c5387738079f0a84ea5b040ed33249fbb584075a1f0e67b001"),
    "star_polygon-27-closed": (
        "ab353e9d130f83ed2dfa889a8056b90ea0e544b34a73de626e20df6277f6b3c6",
        "7742091f021870ba22c1d41a7a3ac343ee6355e05509bf7496d8822ffb12f141"),
    "star_polygon-29-closed": (
        "8325d0bf94f9f23f4e276a3aa04a8a4f742c93d044dbb5d61ae82f7adf7ff5db",
        "8558a10083f61fd5d0cbe647e784e3f98f9660b67bb57ae99ad4eb8c43afe343"),
    "star_polygon-31-closed": (
        "01b1251d052c3b1b8fb98f725d79277970e6e07fe1e28ebb01f0ad78c7b653c9",
        "5d493a4e4a45e9e813a668260f2f5c01f288d0206a6a7382c01643e64dcefd28"),
    "star_polygon-33-closed": (
        "07c6bd2d1c77c04a38b3319dc1547f9cda4d11b4d636d32ed9733cb20231c815",
        "eb0764ea97cec24b272d0b79e209bc2573c29829494116a2fff923fd966c14a1"),
    "star_polygon-35-closed": (
        "047ca3d06154b613fd81aa8c90a99c25e7cdfcfd331f41a8c223605a4111bd9b",
        "c6f78ad4f6a6c0aceacdc22282c5ac4ff15180e3d90bb5f5c6c843e47fa5a3f7"),
    "star_polygon-37-closed": (
        "8dc3b53d62b3611c361a31a1ba32b23f66c4994d9d12e3100c92bfbe5ef6a6a3",
        "d7ea694873fcebb3177808d1b933a5bbc69c3b07f7199a7fa0783256fe440f82"),
    "star_polygon-39-closed": (
        "a6915077b71281952c3bc9d5aa342b9ef00cd77d6dc06f9916412672bc779391",
        "633cf8812c58c2ce1a2b70819d32aef08e8f849de0955a4bd79299878e1c9ba5"),
    "star_polygon-41-closed": (
        "4e52071bdcf489a2295f61316caac419fe051a4c19d5c62352e8e39c0ba95dce",
        "3bd925ddc0b91eb50162505e4cb54d61a1fb6b344c2796ef8dfb68f27b5e6371"),
    "star_polygon-43-closed": (
        "6f671c610bb7ad23e9988a5df4a864b96e89c02ca8b35b50568cfe4912b493ce",
        "798d11b8e28a3f9fee5878049e6e74525aff186a54048aedb1e951cc24775d99"),
    "star_polygon-45-closed": (
        "c1fdfd10eac46af178a805f5b1d0d6862973a9af56db56dd9fa12228836905ed",
        "7eae4dd3f184184f6de96ef8269d9b8f1c582c902ef755d4ecc291082fdb4481"),
    "star_polygon-47-closed": (
        "b5f8ac744f0024768bc130947cb4ccd9fcf8fda490f5bc6ebac0e3f5ebc0997a",
        "dcbed99fd9763b90d877943682bb0956566bd30aac7ea22a39a114f67dcf25e4"),
    "star_polygon-49-closed": (
        "5569334ec02c5b3ac21dfc6674eb2f0c5fe117a71bbaf1f0a4a311542579caac",
        "e1f71bdc11d9c040750680eab9eb5953c5415805ef212bd669645bf52b1f4a8d"),
    "short_52-closed-0.001": (
        "da391a86f6b8c8933bdde7b35048c75140e529d12c3ee2467ee8627538aaf852",
        "8f90d56b8262683a9d23af7b810ba2c5d411e2142d64b3abd9ef1e9bff5165e6"),
    "short_72-closed-0.003": (
        "7956cc87958d781d38228b31020220b2dfaff670605c9ed6b5bfab90d549dfc2",
        "7399c8364bc0789f8e838f6202e14ec01d6f67b3b5501811b358669c4e37c0bb"),
    "rect_74-closed": (
        "cd4f92ba0d06eb80fd8b4d8ebb4fe906b6cf5fe9f130f2061aac760bd32f975f",
        "7b60d7fd32c6a19f9bae1d8b58c3cc301b6dc2ceeec1249e26cbdc46731fcc5b"),
    "odd_wrap-20-closed": (
        "c2c89ab28131552ade2a5741ae3156d66b5fe0b785308ea7378443c7e3201daa",
        None),
    "pinwheel-20-closed": (
        "443eeaf5cbada3bda4e7e360edb3b404a025614f728ee3109fc0e32dd853dd82",
        None),
    "even_wrap_plus2-21-closed": (
        "4f6a453fd49c2f1d92fbfbefe1ada03d969a6a654b9261fa957449a6bf8e12e9",
        None),
    "even_wrap_plus4-21-closed": (
        "0ab79dd916af4d7b191126e82648160a3e035987c049391c9bfd6f16bebd96e1",
        None),
    "star_polygon-401-closed": (
        "611cb4c6dd96afa5c914562faaa06cff6ee0725e2724a0501ad9381b3647e265",
        None),
    "star_polygon-1001-closed": (
        "649d8b96451b00bd7d7045d09dfaff35c5cee3d1508bdfe8ed8e40737c36d9a0",
        None),
}


@pytest.mark.parametrize("member", KNOT_CERTIFY + KNOT_EXTRACT, ids=member_id)
def test_knot_diagram_pinned(member):
    diagram = extract_diagram(layout(program_of(member)))
    assert diagram_digest(diagram) == KNOT_PINNED[member_id(member)][0]


@pytest.mark.parametrize("member", KNOT_CERTIFY, ids=member_id)
def test_alexander_pinned(member):
    delta = alexander_polynomial(extract_diagram(layout(program_of(member))))
    assert alexander_digest(delta) == KNOT_PINNED[member_id(member)][1]


# Each star's diagram digest, and for the two large stars the SHA-256 of
# json.dumps(diagram.gauss), as the strand-rank "alternating" weave gave
# them before the stars took the torus weave.  The torus weave gives
# exactly their mirror image: the same crossings with every over flag and
# sign flipped.
ALTERNATING_STARS = {
    "star_polygon-7-closed":
        "36701cb3abb10f983483a29830f1495d3943240575c6119c278df511dea78ea9",
    "star_polygon-9-closed":
        "56246da80ae1d1029b68313b9201d4bef41e67817ba4a5c1da1d35d04714a018",
    "star_polygon-11-closed":
        "83b4bc56a5d372eda826d4fa2f5cfa07ff98a565ee8fb9055a3e86c835ffb9bf",
    "star_polygon-13-closed":
        "8a2c5fab5dc357cd5033334c1459478cbdc1abe0693fd66b1519e4f75e78211b",
    "star_polygon-15-closed":
        "46f9213c4f0bdc914c724b4919b4d9fa0f4f19224b887bfa4f546c4a7894e652",
    "star_polygon-17-closed":
        "c00cc5489046cdd8fc7d3a845facbccca8e93073b1bdb67f4dd40162dc785674",
    "star_polygon-19-closed":
        "7160b337584dda5c7184da3572437dae8927b454a82d5543fad6503f9ca817fe",
    "star_polygon-21-closed":
        "7f307583c0f7cbb867fab18ffbce700aa227c9c4376e7f0bb64061861b29cb21",
    "star_polygon-23-closed":
        "a8ca8acb761f0e931ca6da0baa721cf908cd0c6640295379ffa9ff5efc1d90eb",
    "star_polygon-25-closed":
        "d1bef5bd5d39d2b039ac3526f9cd114361fc02bc0b254b30994f6d38c83cc571",
    "star_polygon-27-closed":
        "f1392cb0b6059eb469cb08e48c62e2df7830de0ebf23caeb3a4cee4cdf6b1d23",
    "star_polygon-29-closed":
        "e56e16ac696e4259f7bd633674b8c9a2496319e1837e3e26e128de80ac5cf83f",
    "star_polygon-31-closed":
        "603d880eff715ad8be08a503962b6075be77fa2b574a79d30fa1f14a43f3602f",
    "star_polygon-33-closed":
        "137f7e568a3e4a0c917a5ebe263a9ecb4abbd81567fa6d080afa4a9a44c984e7",
    "star_polygon-35-closed":
        "042ccf7d95ae4bf6b77fb9aa7fe50e685ed98acb46d0e5984730f06f37cb5ccb",
    "star_polygon-37-closed":
        "baadf860f0a6defc61b935770ae191e26ee32d7191ca6ea1fca29a502cfba47d",
    "star_polygon-39-closed":
        "52abc01bafa04682ac53632081a5e776e97482d7ac04bf618e13181ac22030f1",
    "star_polygon-41-closed":
        "3f6bfba92061c3ba34952409e1d5edb67a2ef2ee074cec84237349a47783d275",
    "star_polygon-43-closed":
        "c3462d9c07b98f063d39aa52771717fca289a9db4a9e56840c8de55625b70b42",
    "star_polygon-45-closed":
        "5a11f2f0bac6c90f4b26ebcbfd16875d0966105cec1337112a4c2a0b9c20b2bb",
    "star_polygon-47-closed":
        "0561a89d9a474eaacb169b94a29c1839d94b21fd8141ca7a0099a9a53ebfe0a6",
    "star_polygon-49-closed":
        "4773fe42bc39338e897057d93da2682db4642d780c9b4c9235d84b906afcbe0d",
    "star_polygon-401-closed":
        "7cdd9e3e8863189b5474a3cdcf1bdddfbc15f8fd11b24dbc7756a579a2351cfa",
    "star_polygon-1001-closed":
        "f05df6e5c4a6c23ea18f7f04bece6256b139db9713954a7a27370ce9dcc289f1",
}
ALTERNATING_STAR_GAUSS = {
    "star_polygon-401-closed":
        "6a8a94c941a255b27631bc31f6e4d8d9f58ac53589ee00dc877910176716eec1",
    "star_polygon-1001-closed":
        "f1f0172f14619b4c8e4b5da5ac0d0543bcad5e9d0fd3dfe6e5d7b816f9ccaab2",
}


@pytest.mark.parametrize("member", [m for m in KNOT_CERTIFY + KNOT_EXTRACT
                                    if m[0].tag == "star_polygon"], ids=member_id)
def test_star_code_is_the_mirror_of_the_alternating_code(member):
    diagram = extract_diagram(layout(program_of(member)))
    assert all(sign == 1 for _, _, sign in diagram.gauss)
    mirror = KnotDiagram([(cid, not over, -sign) for cid, over, sign in diagram.gauss])
    assert diagram_digest(mirror) == ALTERNATING_STARS[member_id(member)]
    if member_id(member) in ALTERNATING_STAR_GAUSS:
        gauss = hashlib.sha256(json.dumps(mirror.gauss).encode()).hexdigest()
        assert gauss == ALTERNATING_STAR_GAUSS[member_id(member)]


# unfold digests of the two pinned stars while they carried the
# "alternating" weave; their unfolded programs differ in that string only
ALTERNATING_UNFOLD = {
    "star_polygon-31-closed":
        "96af4935cf824eeae25e28e701410fabee211130c1492bbf9e335a9e5018c0d9",
    "star_polygon-1001-closed":
        "37e2d2f0ea2fe31c5ffc720153748aeecfdd8d99c5c24ac82d8f7b019fc02e38",
}


@pytest.mark.parametrize("member", [m for m in MEMBERS if m[0].tag == "star_polygon"],
                         ids=member_id)
def test_star_unfold_is_the_alternating_one_but_for_its_weave(member):
    text = unfold(layout(program_of(member))).to_json()
    assert text.count('"weave": "torus"') == 1
    text = text.replace('"weave": "torus"', '"weave": "alternating"')
    assert hashlib.sha256(text.encode()).hexdigest() == ALTERNATING_UNFOLD[member_id(member)]
