"""Acceptance suite: one test per shipping criterion.

Each test prints a single `criterion N: PASS` line with the measured
numbers once its assertions hold, so a verbose run reads as a
checklist.  Runtime gates are asserted where the criterion carries
one.
"""

import json
import math
import random
import time

from diagram_sources import dense_alexander, pretzel_gauss, torus_braid_gauss

from ribbonfold.cli import main as cli_main
from ribbonfold.constructions import (
    FamilyId,
    build,
    knot_type,
)
from ribbonfold.formulas import (
    bounds_table,
    closed_form_ratio,
    kusner_quotient,
    significant,
)
from ribbonfold.fold_core import layout, ratio, unfold
from ribbonfold.knot_id import (
    KnotDiagram,
    alexander_polynomial,
    extract_diagram,
    verify_knot_type,
)
from ribbonfold.render import RenderOptions, to_svg


def cot(x):
    return 1.0 / math.tan(x)


def sweep_families():
    cases = []
    for q in range(2, 13):
        cases.append((FamilyId("odd_wrap", q), "closed"))
        cases.append((FamilyId("odd_wrap", q), "truncated"))
    for p in range(7, 26, 2):
        cases.append((FamilyId("star_polygon", p), "closed"))
    for q in range(2, 13):
        cases.append((FamilyId("pinwheel", q), "closed"))
    for tag in ("even_wrap_plus2", "even_wrap_plus4"):
        for q in range(3, 12, 2):
            cases.append((FamilyId(tag, q), "closed"))
    return cases


def test_criterion_1_formula_geometry_agreement():
    started = time.perf_counter()
    worst = 0.0
    cases = sweep_families()
    for family, presentation in cases:
        measured = ratio(layout(build(family, presentation=presentation)))
        formula = closed_form_ratio(family, presentation).value
        rel = abs(measured - formula) / formula
        assert rel < 1e-9, (family, presentation, rel)
        worst = max(worst, rel)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    print("criterion 1: PASS - %d members, worst relative error %.3g, %.2fs"
          % (len(cases), worst, elapsed))


def test_criterion_2_reference_constants():
    # displayed values are rounded (sometimes truncated) to the digits
    # shown, so each computed value must sit within one unit of the
    # last displayed digit
    displayed = [
        (closed_form_ratio(FamilyId("odd_wrap", 3), "truncated").value,
         6.0 * cot(math.pi / 7), 1e-12),
        (closed_form_ratio(FamilyId("pinwheel", 2)).value, 15.4, 0.1),
        (closed_form_ratio(FamilyId("star_polygon", 7)).value, 14.5, 0.1),
        (closed_form_ratio(FamilyId("short_52")).value, 9.6, 0.1),
        (closed_form_ratio(FamilyId("short_72")).value, 12.4, 0.1),
        (closed_form_ratio(FamilyId("rect_74")).value, 24.0, 1e-12),
        (kusner_quotient(FamilyId("odd_wrap", 2), "truncated"), 1.83, 0.01),
        (kusner_quotient(FamilyId("odd_wrap", 2)), 2.29, 0.01),
        (kusner_quotient(FamilyId("star_polygon", 7)), 2.07, 0.01),
        (kusner_quotient(FamilyId("pinwheel", 2)), 3.1, 0.1),
        (kusner_quotient(FamilyId("even_wrap_plus2", 3)), 1.2, 0.1),
        (kusner_quotient(FamilyId("even_wrap_plus4", 3)), 1.5, 0.1),
        (kusner_quotient(FamilyId("rect_74")), 24.0 / 7.0, 1e-12),
        (bounds_table()[3].value, 2.2, 0.1),
    ]
    for computed, shown, tolerance in displayed:
        assert abs(computed - shown) <= tolerance, (computed, shown)
    assert closed_form_ratio(FamilyId("odd_wrap", 3), "truncated").symbolic() \
        == "6*cot(pi/7)"
    print("criterion 2: PASS - %d displayed constants reproduced" % len(displayed))


def test_criterion_3_bounds_table():
    rows = bounds_table()
    by_name = {row.constant: row for row in rows}
    targets = {
        "c1_closed": (2.0 / math.pi, "2/pi", "even_wrap"),
        "c1_truncated": (4.0 / math.pi, "4/pi", "odd_wrap"),
        "c2_closed": ((5.0 / 3.0) * cot(math.pi / 5), "(5/3)*cot(pi/5)", "trefoil"),
        "c2_truncated": ((3.0 + math.sqrt(2.0)) / 2.0, "(3+sqrt(2))/2",
                         "figure-eight"),
    }
    assert set(by_name) == set(targets)
    for name, (value, symbolic, witness_word) in targets.items():
        row = by_name[name]
        assert abs(row.value - value) <= 1e-15 * value
        assert row.symbolic == symbolic
        assert witness_word in row.witness
        assert len(significant(row.value)) <= 8
    print("criterion 3: PASS - 4 bound rows with witnesses: "
          + ", ".join("%s=%s" % (r.constant, significant(r.value)) for r in rows))


def test_criterion_4_limit_behavior():
    started = time.perf_counter()
    truncated = [kusner_quotient(FamilyId("odd_wrap", q), "truncated")
                 for q in range(2, 51)]
    assert all(a > b for a, b in zip(truncated, truncated[1:]))
    four_pi = 4.0 / math.pi
    at_200 = kusner_quotient(FamilyId("odd_wrap", 200), "truncated")
    assert abs(at_200 - four_pi) <= 0.01 * four_pi

    two_pi = 2.0 / math.pi
    plus2 = kusner_quotient(FamilyId("even_wrap_plus2", 201))
    assert abs(plus2 - two_pi) <= 0.01 * two_pi
    # the +4 surplus decays as 3/(q-1), so its quotient first enters
    # the 1% band at q = 301; at q = 201 it sits at 1.498% exactly
    plus4_201 = kusner_quotient(FamilyId("even_wrap_plus4", 201))
    assert 0.01 * two_pi < abs(plus4_201 - two_pi) <= 0.015 * two_pi
    plus4_301 = kusner_quotient(FamilyId("even_wrap_plus4", 301))
    assert abs(plus4_301 - two_pi) <= 0.01 * two_pi

    star = kusner_quotient(FamilyId("star_polygon", 1001))
    assert star > 100.0
    elapsed = time.perf_counter() - started
    assert elapsed < 1.0
    print("criterion 4: PASS - monotone to 4/pi (q=200 off by %.3g%%), "
          "+2 within 1%% at q=201 (%.3g%%), +4 at q=201 is %.3g%% and enters "
          "1%% at q=301, star(1001) quotient %.1f, %.2fs"
          % (100 * abs(at_200 - four_pi) / four_pi,
             100 * abs(plus2 - two_pi) / two_pi,
             100 * abs(plus4_201 - two_pi) / two_pi, star, elapsed))


def test_criterion_5_knot_certification():
    started = time.perf_counter()
    families = (
        [FamilyId("odd_wrap", q) for q in range(2, 6)]
        + [FamilyId("star_polygon", p) for p in (7, 9, 11)]
        + [FamilyId("pinwheel", q) for q in (2, 3, 4)]
        + [FamilyId("even_wrap_plus2", 3), FamilyId("even_wrap_plus4", 3),
           FamilyId("even_wrap_plus2", 5), FamilyId("even_wrap_plus4", 5)]
        + [FamilyId("short_52"), FamilyId("short_72")]
    )
    checked = 0
    for family in families:
        params = knot_type(family)
        report = verify_knot_type(build(family), (params.p, params.q))
        assert report.matches, (family, report.summary())
        checked += 1

    # oracle: the 7_4 polynomial from an independent pretzel Gauss code
    reference = alexander_polynomial(KnotDiagram(pretzel_gauss(3, 3, 1)))
    extracted = alexander_polynomial(extract_diagram(layout(build(FamilyId("rect_74")))))
    assert extracted == reference
    assert sorted(reference.coefficients.items()) == [(0, 4), (1, -7), (2, 4)]
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    print("criterion 5: PASS - %d torus certifications + 7_4 oracle match, %.2fs"
          % (checked, elapsed))


def _json_close(a, b, tol):
    if isinstance(a, float) or isinstance(b, float):
        return abs(float(a) - float(b)) <= tol
    if isinstance(a, list):
        return (isinstance(b, list) and len(a) == len(b)
                and all(_json_close(x, y, tol) for x, y in zip(a, b)))
    if isinstance(a, dict):
        return (isinstance(b, dict) and set(a) == set(b)
                and all(_json_close(a[k], b[k], tol) for k in a))
    return a == b


def _panel_width(panel):
    (ax, ay), (bx, by) = panel.side(0)
    cx, cy = panel.vertices[2]
    return abs((bx - ax) * (cy - ay) - (by - ay) * (cx - ax)) / math.hypot(
        bx - ax, by - ay)


def test_criterion_6_invariant_suites():
    # fold round trip at 1e-12
    probes = [
        build(FamilyId("odd_wrap", 3)), build(FamilyId("odd_wrap", 4), presentation="truncated"),
        build(FamilyId("star_polygon", 7)), build(FamilyId("pinwheel", 2)),
        build(FamilyId("even_wrap_plus2", 3)), build(FamilyId("rect_74")),
    ]
    for program in probes:
        replay = unfold(layout(program))
        da = json.loads(program.to_json())
        db = json.loads(replay.to_json())
        da.pop("label"), db.pop("label")
        assert _json_close(da, db, 1e-12), program.label

    # width preservation and panel congruence
    for program in probes:
        lay = layout(program)
        for panel in lay.panels:
            assert abs(_panel_width(panel) - program.width) <= 1e-12
    for program in probes[:1] + probes[2:5]:
        lay = layout(program)
        shapes = []
        for panel in lay.panels:
            sides = sorted(
                math.hypot(panel.side(k)[1][0] - panel.side(k)[0][0],
                           panel.side(k)[1][1] - panel.side(k)[0][1])
                for k in range(4))
            shapes.append(sides)
        first = shapes[0]
        for sides in shapes[1:]:
            assert all(abs(a - b) <= 1e-12 for a, b in zip(first, sides))

    # circumscribed-circle chords of the odd wraps
    for q in range(2, 7):
        n = 2 * q + 1
        lay = layout(build(FamilyId("odd_wrap", q)))
        starts = [seg[0] for seg in lay.centerline]
        cx = sum(p[0] for p in starts) / n
        cy = sum(p[1] for p in starts) / n
        radius = 1.0 / (2.0 * math.sin(math.pi / n))
        for panel in lay.panels:
            for vx, vy in panel.vertices:
                assert abs(math.hypot(vx - cx, vy - cy) - radius) <= 1e-9
            # each fold line is a unit chord of that circle
            (ax, ay), (bx, by) = panel.side(1)
            assert abs(math.hypot(bx - ax, by - ay) - 1.0) <= 1e-12
        # centerline segments are the chords of the wrapped polygon
        chord = math.cos(math.pi / (2 * n)) / math.tan(math.pi / n)
        for a, b in lay.centerline:
            assert abs(math.hypot(b[0] - a[0], b[1] - a[1]) - chord) <= 1e-12

    # Gauss validity, Alexander palindromicity, |delta(1)| = 1
    for family in (FamilyId("odd_wrap", 2), FamilyId("star_polygon", 7), FamilyId("pinwheel", 2)):
        diagram = extract_diagram(layout(build(family)))
        assert KnotDiagram(diagram.gauss) == diagram
        delta = alexander_polynomial(diagram)
        assert delta.mirror() == delta
        assert abs(delta.evaluate(1)) == 1

    # row/column deletion independence on small diagrams
    for gauss in (torus_braid_gauss(3, 2), torus_braid_gauss(4, 3)):
        diagram = KnotDiagram(gauss)
        assert diagram.crossing_count <= 10
        reference = alexander_polynomial(diagram)
        for r in range(diagram.crossing_count):
            for c in range(diagram.crossing_count):
                assert dense_alexander(diagram, row=r, col=c) == reference

    # trig identities at 1e4 random angles
    rng = random.Random(6180339)
    for _ in range(10000):
        x = rng.uniform(1e-6, math.pi / 2 - 1e-6)
        assert abs((1.0 + math.cos(2 * x)) / math.sin(2 * x) - cot(x)) \
            <= 1e-12 * max(1.0, abs(cot(x)))
        assert abs(cot(x) + 1.0 / math.sin(x) - cot(x / 2)) \
            <= 1e-12 * max(1.0, abs(cot(x / 2)))
    b = 1.0 / (2.0 * math.sin(math.pi / 14))
    t = math.cos(3.0 * math.pi / 14) / math.sin(math.pi / 7)
    w = math.cos(math.pi / 14)
    assert abs(3.0 * (b + t) / w - 6.0 * cot(math.pi / 7)) <= 1e-12
    print("criterion 6: PASS - round trips, widths, congruence, chords, "
          "Gauss/Alexander invariants, deletion independence, trig identities")


def test_criterion_7_determinism(capsys, tmp_path):
    def capture(argv):
        code = cli_main(argv)
        out = capsys.readouterr().out
        assert code == 0
        return out

    build_args = ["build", "--family", "even-wrap", "--q", "3"]
    assert capture(build_args) == capture(build_args)

    src = tmp_path / "wrap.json"
    assert cli_main(["build", "--family", "odd-wrap", "--q", "3",
                     "--output", str(src)]) == 0
    capsys.readouterr()
    render_args = ["render", "--input", str(src), "--circumcircle"]
    assert capture(render_args) == capture(render_args)

    identify_args = ["identify", "--family", "star", "--p", "7",
                     "--expected", "7,2", "--json"]
    assert capture(identify_args) == capture(identify_args)

    lay = layout(build(FamilyId("rect_74")))
    options = RenderOptions(epsilon_display=0.03)
    assert to_svg(lay, options) == to_svg(layout(build(FamilyId("rect_74"))), options)
    print("criterion 7: PASS - build/render/identify byte-identical on reruns")
