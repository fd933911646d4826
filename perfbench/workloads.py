"""The benchmark's three workloads: their inputs, operations and checks.

An operation is one closed-loop call into ribbonfold.  ``run`` does the
work that is timed; ``check`` then compares its output with values from
``reference`` and returns what is wrong, or None.  Inputs depend on the
seed only through the short variants' epsilon and the order of each pass.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
import subprocess
import sys
import threading
import xml.etree.ElementTree as ET
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, List, Optional

import reference as ref

WORKLOADS = ("knot", "geometry", "cli")
CLI_TIMEOUT_S = 120.0
CALIBRATED_CLI = os.path.join(os.path.dirname(os.path.abspath(__file__)), "calibration.py")
SVG_POLYGON = "{http://www.w3.org/2000/svg}polygon"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]
    # what fails here every time today because of a known fault
    known_fault: Optional[str] = None


@dataclass(frozen=True)
class Member:
    tag: str
    n: Optional[int] = None
    presentation: str = "closed"
    epsilon: float = 1e-3

    @property
    def label(self) -> str:
        if self.n is None:
            extra = " eps=%.6g" % self.epsilon if self.tag.startswith("short") else ""
            return self.tag + extra
        name = "p" if self.tag == "star_polygon" else "q"
        text = "%s %s=%d" % (self.tag, name, self.n)
        return text + " truncated" if self.presentation == "truncated" else text


def _close(got: float, want: float, tolerance: float) -> bool:
    """Relative agreement; False for NaN."""
    return abs(got - want) <= tolerance * abs(want)


def _ratio_problem(m: Member, measured: float) -> Optional[str]:
    want = ref.closed_form(m.tag, m.n, m.presentation)
    if m.tag.startswith("short"):
        defect = want - measured
        if not 0.0 < defect <= 10.0 * m.epsilon:
            return "ratio %r: limit defect %r outside (0, 10*eps]" % (measured, defect)
    elif not _close(measured, want, 1e-9):
        return "ratio %r != closed form %r" % (measured, want)
    return None


def _diagram_problem(m: Member, gauss, crossings: int) -> Optional[str]:
    problem = ref.gauss_problem(gauss)
    if problem:
        return "gauss: " + problem
    low, high = ref.crossing_range(m.tag, m.n)
    if not low <= crossings <= high:
        return "crossings %d outside [%d, %d]" % (crossings, low, high)
    return None


def _alexander_problem(m: Member, terms) -> Optional[str]:
    got = ref.poly_from_exponents(terms)
    knot = ref.torus_type(m.tag, m.n)
    want = ref.RECT_74_ALEXANDER if knot is None else ref.torus_alexander(*knot)
    if not ref.same_up_to_mirror(got, want):
        return "Alexander %r != reference %r" % (got, want)
    return None


# ---------------------------------------------------------------- knot


def _certify_op(rf, m: Member) -> Op:
    family = rf.FamilyId(m.tag, m.n)
    knot = ref.torus_type(m.tag, m.n)

    def run():
        program = rf.build(family, epsilon=m.epsilon)
        if knot is None:
            diagram = rf.knot_id.extract_diagram(rf.layout(program))
            return diagram, rf.knot_id.alexander_polynomial(diagram)
        return rf.knot_id.verify_knot_type(program, knot)

    def check(out) -> Optional[str]:
        if knot is None:
            diagram, delta = out
            gauss, count = diagram.gauss, diagram.crossing_count
        else:
            report = out
            if not report.matches:
                return "verify_knot_type reports no match"
            delta, gauss, count = report.alexander, report.gauss, report.crossing_count
            want_det = ref.poly_at_minus_one(ref.torus_alexander(*knot))
            if report.determinant != want_det:
                return "determinant %d != %d" % (report.determinant, want_det)
        return (_diagram_problem(m, gauss, count)
                or _alexander_problem(m, delta.coefficients))

    return Op("certify " + m.label, run, check)


def certify_members(eps52: float, eps72: float) -> List[Member]:
    members = []
    for q in range(2, 6):
        members += [Member("odd_wrap", q), Member("pinwheel", q)]
    for q in (3, 5):
        members += [Member("even_wrap_plus2", q), Member("even_wrap_plus4", q)]
    members += [Member("star_polygon", p) for p in range(7, 50, 2)]
    members += [Member("short_52", epsilon=eps52), Member("short_72", epsilon=eps72),
                Member("rect_74")]
    return members


def _extract_op(rf, m: Member) -> Op:
    family = rf.FamilyId(m.tag, m.n)

    def run():
        return rf.knot_id.extract_diagram(rf.layout(rf.build(family)))

    def check(diagram) -> Optional[str]:
        return _diagram_problem(m, diagram.gauss, diagram.crossing_count)

    return Op("extract " + m.label, run, check)


def extract_members() -> List[Member]:
    # too large for Alexander: the wraps are bound by the check over every
    # pair of hits, the stars by the check over every pair of segments
    return [Member("odd_wrap", 20), Member("pinwheel", 20),
            Member("even_wrap_plus2", 21), Member("even_wrap_plus4", 21),
            Member("star_polygon", 401), Member("star_polygon", 1001)]


# ------------------------------------------------------------ geometry


def _angles_problem(m: Member, program, back) -> Optional[str]:
    allowed = ref.crease_fractions(m.tag, m.n)
    lines = list(program.creases)
    lines += [cut for cut in (program.start_cut, program.end_cut) if cut is not None]
    if allowed is not None:
        wrong = {line.angle.fraction for line in lines} - set(allowed)
        if wrong:
            return "angles: %d crease angles outside {%s, %s}*pi" % (
                len(wrong), allowed[0], allowed[1])
    if len(back.creases) != len(program.creases):
        return "unfold: %d creases, program has %d" % (
            len(back.creases), len(program.creases))
    pairs = list(zip(back.creases, program.creases))
    pairs += [(a, b) for a, b in ((back.start_cut, program.start_cut),
                                  (back.end_cut, program.end_cut)) if b is not None]
    for got, want in pairs:
        if allowed is not None:
            same_angle = got.angle == want.angle
        else:
            # the short variants fold at angles that are not simple
            # fractions of pi, so compare the radians
            same_angle = abs(got.angle.radians - want.angle.radians) <= 1e-12
        if not same_angle:
            return "unfold: angle %r != %r" % (got.angle, want.angle)
        if getattr(got, "layer_shift", None) != getattr(want, "layer_shift", None):
            return "unfold: layer shift %r != %r" % (got.layer_shift, want.layer_shift)
        if abs(got.position - want.position) > 1e-9 * max(abs(want.position), 1.0):
            return "unfold: position %r != %r" % (got.position, want.position)
    return None


def _svg_problem(svg: str, panels: int) -> Optional[str]:
    try:
        root = ET.fromstring(svg)
    except ET.ParseError as exc:
        return "svg: not XML (%s)" % exc
    polygons = sum(1 for _ in root.iter(SVG_POLYGON))
    if polygons != panels:
        return "svg: %d polygons for %d panels" % (polygons, panels)
    return None


# Faults in the program that fail these members on every run: the seam
# gap of 1.1e-9 to 1.6e-9 exceeds the absolute fold_core.CLOSURE_TOLERANCE
# (1e-9) while the strip length grows like q^2, and ExactAngle.from_float
# snaps the star's angles to wrong fractions with denominators up to 1e12.
FAILING_CLOSURES = (("odd_wrap", 74), ("pinwheel", 54),
                    ("even_wrap_plus2", 77), ("even_wrap_plus4", 79))
FAILING_ANGLES = (("star_polygon", 1001),)


def _geometry_op(rf, m: Member) -> Op:
    family = rf.FamilyId(m.tag, m.n)

    def run():
        program = rf.build(family, presentation=m.presentation, epsilon=m.epsilon)
        lay = rf.layout(program)
        measured = rf.ratio(lay)
        back = rf.unfold(lay)
        again = rf.FoldProgram.from_json(program.to_json())
        return program, lay, measured, back, again, rf.to_svg(lay)

    def check(out) -> Optional[str]:
        program, lay, measured, back, again, svg = out
        if again != program:
            return "json: from_json(to_json(p)) != p"
        return (_ratio_problem(m, measured)
                or _angles_problem(m, program, back)
                or _svg_problem(svg, len(lay.panels)))

    fault = None
    if (m.tag, m.n) in FAILING_CLOSURES:
        fault = "ClosureError"
    elif (m.tag, m.n) in FAILING_ANGLES:
        fault = "angles:"
    return Op("geometry " + m.label, run, check, fault)


def geometry_members(eps52: float, eps72: float) -> List[Member]:
    members = []
    for q in range(2, 61):
        members += [Member("odd_wrap", q), Member("odd_wrap", q, "truncated")]
    members += [Member("pinwheel", q) for q in range(2, 51)]
    for q in range(3, 60, 2):
        members += [Member("even_wrap_plus2", q), Member("even_wrap_plus4", q)]
    members += [Member("star_polygon", p) for p in range(7, 302, 2)]
    members += [Member("short_52", epsilon=eps52), Member("short_72", epsilon=eps72),
                Member("rect_74")]
    members += [Member(tag, n) for tag, n in FAILING_CLOSURES + FAILING_ANGLES]
    return members


def _member_of_row(tag: str, p: str, q: str, presentation: str) -> Member:
    if tag in ref.PANELS:
        return Member(tag)
    return Member(tag, int(p if tag == "star_polygon" else q), presentation)


def _quotient_rows(q_max: int, p_max: int) -> int:
    """Row count of the quotient table for the given caps."""
    odd_q = len(range(3, q_max + 1, 2))
    return 2 * (q_max - 1) + len(range(7, p_max + 1, 2)) + (q_max - 1) + 2 * odd_q + 3


def _csv_table_problem(text: str, q_max: int, p_max: int) -> Optional[str]:
    lines = text.splitlines()
    if lines[0] != "family,p,q,presentation,ratio,crossing,quotient":
        return "quotient csv: header %r" % lines[0]
    if len(lines) - 1 != _quotient_rows(q_max, p_max):
        return "quotient csv: %d rows" % (len(lines) - 1)
    for line in lines[1:]:
        tag, p, q, presentation, ratio, crossing, quotient = line.split(",")
        m = _member_of_row(tag, p, q, presentation)
        want = ref.closed_form(m.tag, m.n, presentation)
        cn = ref.crossing_number(m.tag, m.n)
        if not _close(float(ratio), want, 1e-12) or int(crossing) != cn:
            return "quotient csv: row %r, want ratio %r crossing %d" % (line, want, cn)
        if not _close(float(quotient), want / cn, 1e-12):
            return "quotient csv: row %r, want quotient %r" % (line, want / cn)
    return None


def _markdown_table_problem(text: str, q_max: int, p_max: int) -> Optional[str]:
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in text.splitlines()]
    if len(rows) - 2 != _quotient_rows(q_max, p_max):
        return "quotient markdown: %d rows" % (len(rows) - 2)
    for tag, p, q, presentation, ratio, crossing, quotient in rows[2:]:
        m = _member_of_row(tag, p, q, presentation)
        want = ref.closed_form(m.tag, m.n, presentation)
        if not _close(float(ratio), want, 5e-6):
            return "quotient markdown: %s ratio %s, want %r" % (m.label, ratio, want)
    return None


BOUNDS = {
    "c1_closed": 2.0 / math.pi,
    "c1_truncated": 4.0 / math.pi,
    "c2_closed": 5.0 * ref.COT_PI_5 / 3.0,
    "c2_truncated": (6.0 + 2.0 * math.sqrt(2.0)) / 4.0,
}


def _bounds_problem(values, tolerance: float) -> Optional[str]:
    if sorted(values) != sorted(BOUNDS):
        return "bounds: constants %r" % sorted(values)
    for name, value in values.items():
        if not _close(value, BOUNDS[name], tolerance):
            return "bounds: %s = %r, want %r" % (name, value, BOUNDS[name])
    return None


def _table_op(rf) -> Op:
    def run():
        return (rf.quotient_table(12, 25, "csv"), rf.quotient_table(12, 25, "markdown"),
                rf.bounds_table())

    def check(out) -> Optional[str]:
        csv_text, markdown, bounds = out
        return (_csv_table_problem(csv_text, 12, 25)
                or _markdown_table_problem(markdown, 12, 25)
                or _bounds_problem({row.constant: row.value for row in bounds}, 1e-12))

    return Op("geometry tables", run, check)


# ----------------------------------------------------------------- cli


class CliRunner:
    """Runs ``ribbonfold.cli`` commands one at a time.

    As subprocesses, with the absolute ``src`` path on PYTHONPATH so the
    commands work from any working directory, or in-process through
    ``cli.main`` when a trace must see the layers under each command.
    A subprocess times calibrate() before it runs the command.  The
    runner keeps the seconds of its warm call in ``last_calibration_s``
    and of all its calls in ``last_calibrating_s``.
    """

    def __init__(self, rf, src: str, workdir: str, in_process: bool):
        self.rf = rf
        self.workdir = workdir
        self.in_process = in_process
        self.peak_rss_kb = 0
        self.last_calibration_s = 0.0
        self.last_calibrating_s = 0.0
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            [src] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
        self.env = env

    def __call__(self, argv: List[str]):
        """Exit code, standard output and standard error of one command."""
        if self.in_process:
            out, err = io.StringIO(), io.StringIO()
            with redirect_stdout(out), redirect_stderr(err):
                code = self.rf.cli.main(list(argv))
            return code, out.getvalue(), err.getvalue()
        out_path = os.path.join(self.workdir, "stdout.txt")
        err_path = os.path.join(self.workdir, "stderr.txt")
        speed_path = os.path.join(self.workdir, "calibration.txt")
        if os.path.exists(speed_path):
            os.remove(speed_path)
        with open(out_path, "w+", encoding="utf-8") as out, \
                open(err_path, "w+", encoding="utf-8") as err:
            proc = subprocess.Popen(
                [sys.executable, CALIBRATED_CLI, speed_path] + list(argv),
                stdout=out, stderr=err, cwd=self.workdir, env=self.env)
            timer = threading.Timer(CLI_TIMEOUT_S, proc.kill)
            timer.start()
            try:
                # wait4 gives this child's own peak memory
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.peak_rss_kb = max(self.peak_rss_kb, usage.ru_maxrss)
            with open(speed_path, "r", encoding="utf-8") as handle:
                warm, spent = handle.read().split()
            self.last_calibration_s = float(warm)
            self.last_calibrating_s = float(spent)
            out.seek(0)
            err.seek(0)
            return proc.returncode, out.read(), err.read()


def _lines(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _cli_op(label: str, argv: List[str], check_text, runner: CliRunner) -> Op:
    def run():
        return runner(argv)

    def check(out) -> Optional[str]:
        code, text, err = out
        if code != 0:
            return "exit code %r: %s" % (code, err.strip()[-200:])
        return check_text(text)

    return Op("cli " + label, run, check)


def _verify_text_problem(m: Member, knot_check: bool):
    def check(text: str) -> Optional[str]:
        problem = _ratio_problem(m, float(_lines(text).get("measured_ratio", "nan")))
        if problem:
            return problem
        if not text.rstrip().endswith("verify: PASS"):
            return "verify did not pass"
        if not knot_check:
            return None
        line = [x for x in text.splitlines() if x.startswith("knot_check: ")][-1]
        if not line.endswith("-> MATCH"):
            return "knot check did not match: " + line
        if m.tag == "rect_74":
            if "Alexander 4*t^2 - 7*t + 4 vs" not in line:
                return "knot check: " + line
            return None
        count = int(re.search(r"(\d+) crossings", line).group(1))
        low, high = ref.crossing_range(m.tag, m.n)
        if not low <= count <= high:
            return "crossings %d outside [%d, %d]" % (count, low, high)
        det = int(re.search(r"det (\d+)", line).group(1))
        if det != ref.poly_at_minus_one(ref.torus_alexander(*ref.torus_type(m.tag, m.n))):
            return "determinant %d" % det
        return None
    return check


def _identify_json_problem(m: Member, expected: bool):
    def check(text: str) -> Optional[str]:
        payload = json.loads(text)
        gauss = [tuple(entry) for entry in payload["gauss"]]
        problem = (_diagram_problem(m, gauss, payload["crossings"])
                   or _alexander_problem(
                       m, {int(e): c for e, c in payload["alexander"].items()}))
        if problem:
            return problem
        want_det = ref.poly_at_minus_one(ref.torus_alexander(*ref.torus_type(m.tag, m.n)))
        if payload["determinant"] != want_det:
            return "determinant %r != %d" % (payload["determinant"], want_det)
        if payload["matches"] is not (True if expected else None):
            return "matches %r" % payload["matches"]
        return None
    return check


def _identify_rect_problem(text: str) -> Optional[str]:
    values = _lines(text)
    m = Member("rect_74")
    gauss = [tuple(entry) for entry in json.loads(values["gauss"])]
    problem = _diagram_problem(m, gauss, int(values["crossings"]))
    if problem:
        return problem
    if values["alexander"] != "4*t^2 - 7*t + 4":
        return "Alexander %r" % values["alexander"]
    if int(values["determinant"]) != ref.poly_at_minus_one(ref.RECT_74_ALEXANDER):
        return "determinant %s" % values["determinant"]
    return None


def _build_json_problem(m: Member):
    def check(text: str) -> Optional[str]:
        doc = json.loads(text)
        creases = doc["creases"]
        measured = creases[-1]["position"] / doc["width"]
        allowed = ref.crease_fractions(m.tag, m.n)
        angles = {Fraction(c["angle_num"], c["angle_den"]) for c in creases}
        if not angles <= set(allowed):
            return "build: crease angles %r" % sorted(angles)
        return _ratio_problem(m, measured)
    return check


def _render_problem(path: str, panels: int):
    def check(text: str) -> Optional[str]:
        with open(path, "r", encoding="utf-8") as handle:
            return _svg_problem(handle.read(), panels)
    return check


def _markdown_bounds_problem(text: str) -> Optional[str]:
    rows = [[c.strip() for c in line.strip("|").split("|")] for line in text.splitlines()]
    return _bounds_problem({row[0]: float(row[1]) for row in rows[2:]}, 5e-6)


def cli_ops(rf, runner: CliRunner, eps52: float) -> List[Op]:
    workdir = runner.workdir
    ow5 = Member("odd_wrap", 5)
    program_path = os.path.join(workdir, "odd_wrap_q5.json")
    rect_path = os.path.join(workdir, "rect_74.json")
    svg_path = os.path.join(workdir, "render.svg")
    with open(program_path, "w", encoding="utf-8") as handle:
        handle.write(rf.build(rf.FamilyId("odd_wrap", 5)).to_json())
    with open(rect_path, "w", encoding="utf-8") as handle:
        handle.write(rf.build(rf.FamilyId("rect_74")).to_json())
    short = Member("short_52", epsilon=eps52)
    commands = [
        ("table quotients", ["table", "--quotients"],
         lambda text: _csv_table_problem(text, 12, 25)),
        ("table bounds markdown", ["table", "--bounds", "--format", "markdown"],
         _markdown_bounds_problem),
        ("build odd-wrap q=5", ["build", "--family", "odd-wrap", "--q", "5"],
         _build_json_problem(ow5)),
        ("build star p=25", ["build", "--family", "star", "--p", "25"],
         _build_json_problem(Member("star_polygon", 25))),
        ("render odd-wrap q=5", ["render", "--input", program_path, "--output", svg_path],
         _render_problem(svg_path, 2 * 5 + 1)),
        ("verify even-wrap q=5", ["verify", "--family", "even-wrap", "--q", "5"],
         _verify_text_problem(Member("even_wrap_plus2", 5), False)),
        ("verify odd-wrap q=5 --knot-check",
         ["verify", "--family", "odd-wrap", "--q", "5", "--knot-check"],
         _verify_text_problem(ow5, True)),
        ("verify short-52 --knot-check",
         ["verify", "--family", "short-52", "--epsilon", repr(eps52), "--knot-check"],
         _verify_text_problem(short, True)),
        ("verify rect74 --knot-check", ["verify", "--family", "rect74", "--knot-check"],
         _verify_text_problem(Member("rect_74"), True)),
        ("identify star p=25", ["identify", "--family", "star", "--p", "25", "--json"],
         _identify_json_problem(Member("star_polygon", 25), False)),
        ("identify odd-wrap q=5 --expected",
         ["identify", "--family", "odd-wrap", "--q", "5", "--expected", "6,5", "--json"],
         _identify_json_problem(ow5, True)),
        ("identify rect74 input", ["identify", "--input", rect_path],
         _identify_rect_problem),
    ]
    return [_cli_op(label, argv, check, runner) for label, argv, check in commands]


# ------------------------------------------------------------- inputs


def make_ops(name: str, rf, rng, runner: Optional[CliRunner]) -> List[Op]:
    """One pass of a workload, in a fixed order; the runner permutes it."""
    eps52 = rng.uniform(1e-4, 1e-2)
    eps72 = rng.uniform(1e-4, 1e-2)
    if name == "knot":
        return ([_certify_op(rf, m) for m in certify_members(eps52, eps72)]
                + [_extract_op(rf, m) for m in extract_members()])
    if name == "geometry":
        ops = [_geometry_op(rf, m) for m in geometry_members(eps52, eps72)]
        return ops + [_table_op(rf)]
    return cli_ops(rf, runner, eps52)
