"""End-to-end tests of the command line front end."""

import hashlib
import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET

import pytest

from ribbonfold.cli import main
from ribbonfold.constructions import FamilyId, build
from ribbonfold.errors import ClosureError
from ribbonfold.fold_core import CreaseSpec, CutSpec, ExactAngle, FoldProgram, layout


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_build_truncated_heptagon_strip(capsys, tmp_path):
    out_path = tmp_path / "trunc.json"
    code, _, _ = run_cli(
        capsys, "build", "--family", "odd-wrap", "--q", "3",
        "--presentation", "truncated", "--output", str(out_path),
    )
    assert code == 0
    program = FoldProgram.from_json(out_path.read_text())
    assert program.presentation == "truncated"
    assert len(layout(program).panels) == 6
    # no stale temp files from the write-then-rename
    assert [p.name for p in tmp_path.iterdir()] == ["trunc.json"]


def test_build_stdout_and_determinism(capsys):
    code_a, out_a, _ = run_cli(capsys, "build", "--family", "pinwheel", "--q", "2")
    code_b, out_b, _ = run_cli(capsys, "build", "--family", "pinwheel", "--q", "2")
    assert code_a == code_b == 0
    assert out_a == out_b
    FoldProgram.from_json(out_a)


VERIFY_MATRIX = (
    [("odd-wrap", ["--q", str(q), "--presentation", pres])
     for q in range(2, 11) for pres in ("closed", "truncated")]
    + [("star", ["--p", str(p)]) for p in range(7, 22, 2)]
    + [("pinwheel", ["--q", str(q)]) for q in range(2, 11)]
    + [("even-wrap", ["--q", str(q), "--variant", str(v)])
       for q in range(3, 10, 2) for v in (2, 4)]
    + [("short-52", []), ("short-72", []), ("rect74", [])]
)


@pytest.mark.parametrize("family,extra", VERIFY_MATRIX)
def test_verify_matrix_passes(capsys, family, extra):
    code, out, _ = run_cli(capsys, "verify", "--family", family, *extra)
    assert code == 0
    assert out.rstrip().endswith("PASS")


def test_verify_rect74_reports_24(capsys):
    code, out, _ = run_cli(capsys, "verify", "--family", "rect74")
    assert code == 0
    assert "closed_form=24.0 (24)" in out


def test_verify_with_knot_check(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "odd-wrap", "--q", "2", "--knot-check")
    assert code == 0
    assert "MATCH" in out


@pytest.mark.parametrize("argv, certificate", [
    (("verify", "--family", "star", "--p", "9", "--knot-check"), "diagram, handedness +1"),
    (("verify", "--family", "odd-wrap", "--q", "2", "--knot-check"), "alexander, handedness none"),
])
def test_verify_knot_check_names_its_certificate(capsys, argv, certificate):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    check, *rest = out.splitlines()[-3:]
    assert check.startswith("knot_check: ") and check.endswith(" -> MATCH")
    assert rest == ["knot_certificate: " + certificate, "verify: PASS"]


def test_identify_names_its_certificate(capsys):
    code, out, _ = run_cli(capsys, "identify", "--family", "star", "--p", "25",
                           "--expected", "25,2")
    assert code == 0
    assert out.splitlines()[-3:] == ["certificate=diagram", "handedness=+1",
                                     "expected=(25,2) -> MATCH"]


def test_verify_failure_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "rect74", "--tolerance", "1e-20")
    assert code == 1
    assert out.rstrip().endswith("FAIL")


def test_verify_reports_a_layout_that_does_not_close(capsys, monkeypatch):
    def fails_to_close(program):
        raise ClosureError("ends miss by 0.5")

    monkeypatch.setattr("ribbonfold.cli.layout", fails_to_close)
    code, out, _ = run_cli(capsys, "verify", "--family", "odd-wrap", "--q", "3")
    assert code == 1
    assert out.splitlines()[-1] == "verify: FAIL (layout does not close: ends miss by 0.5)"


def test_table_quotients_csv(capsys):
    code, out, _ = run_cli(capsys, "table", "--quotients", "--q-max", "4")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "family,p,q,presentation,ratio,crossing,quotient"
    assert any(line.startswith("rect_74") for line in lines)


def test_table_bounds_row(capsys):
    code, out, _ = run_cli(capsys, "table", "--bounds")
    assert code == 0
    assert "c2_closed" in out and "(5/3)*cot(pi/5)" in out


def test_table_markdown_and_output_file(capsys, tmp_path):
    path = tmp_path / "bounds.md"
    code, out, _ = run_cli(
        capsys, "table", "--bounds", "--format", "markdown",
        "--output", str(path))
    assert code == 0 and out == ""
    text = path.read_text()
    assert text.startswith("| constant")
    code, out, _ = run_cli(capsys, "table", "--bounds", "--format", "markdown")
    assert out == text


# SHA-256 of the default tables' stdout, pinned so a change to the row
# order or to either renderer shows up as a byte difference
TABLE_DIGESTS = {
    ("--quotients", "csv"):
        "a3c9992184b921ee1b84311db8966272a68af7bf023dd4cfcafcb367386794c9",
    ("--quotients", "markdown"):
        "120e6e09e5e2a0d876cb2adc3b0162bea2d50a2307be194b172b33f1e1894c35",
    ("--bounds", "csv"):
        "8e5b51fc7fd86fcbc7b9c71e24f63abd2a3ce8ded3c15e82728325998c65e814",
    ("--bounds", "markdown"):
        "b2b81e8be1c1f3551a168172935c585a8dae13f1c8dd655f34b9d0d2cefe3e44",
}


@pytest.mark.parametrize("kind,format", sorted(TABLE_DIGESTS))
def test_table_bytes_pinned(capsys, kind, format):
    code, out, _ = run_cli(capsys, "table", kind, "--format", format)
    assert code == 0
    digest = hashlib.sha256(out.encode("utf-8")).hexdigest()
    assert digest == TABLE_DIGESTS[kind, format]


# argv, exit code and SHA-256 of stdout of the certifying commands, pinned
# so that a change to a knot_check line or to identify's report shows up
# as a byte difference; RECT stands for a built rect74 program file
RECT = "rect.json"
CERTIFY_DIGESTS = {
    "verify-odd-wrap-5": (
        ("verify", "--family", "odd-wrap", "--q", "5", "--knot-check"), 0,
        "3578f906725a84a485e9d37b351282af86a0dc36c935bfed5bb8b6d7cfbd8b4b"),
    "verify-rect74": (
        ("verify", "--family", "rect74", "--knot-check"), 0,
        "5b6ebd8e885182ae59ccbbdf76bf496b62c9f830fe686d8a7b45e64f76dfa26f"),
    "verify-short-52": (
        ("verify", "--family", "short-52", "--epsilon", "0.003", "--knot-check"), 0,
        "0c796133eebb25d394ae2cd9d4e47b0eb846c82d78eaea5965ef182980019e3c"),
    "identify-odd-wrap-5": (
        ("identify", "--family", "odd-wrap", "--q", "5"), 0,
        "c3d9f2af75aa85504785a0b5a313167521db0322b9574eeff98356fa6b4ed8b0"),
    "identify-odd-wrap-5-expected-json": (
        ("identify", "--family", "odd-wrap", "--q", "5", "--expected", "6,5", "--json"), 0,
        "94de24aed476916d4dbf07dae6642d206f351ce5fc05c294b82c9db1918c5059"),
    "identify-odd-wrap-5-mismatch": (
        ("identify", "--family", "odd-wrap", "--q", "5", "--expected", "7,2"), 1,
        "3816d31a37ea1d615741ad56455326e34acbccec49b3da63d4b5ce94c9eec36e"),
    "identify-rect74-input": (
        ("identify", "--input", RECT), 0,
        "6ed30ed11a3fe982a8c9ede7c8c4d13b9d7f2539b0337c99357ee351f7b00fb9"),
}


@pytest.mark.parametrize("name", sorted(CERTIFY_DIGESTS))
def test_certification_bytes_pinned(capsys, tmp_path, name):
    argv, want_code, want_digest = CERTIFY_DIGESTS[name]
    program = tmp_path / RECT
    program.write_text(run_cli(capsys, "build", "--family", "rect74")[1])
    argv = [str(program) if arg == RECT else arg for arg in argv]
    code, out, _ = run_cli(capsys, *argv)
    assert code == want_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == want_digest


def test_render_pipeline(capsys, tmp_path):
    src = tmp_path / "star.json"
    dst = tmp_path / "star.svg"
    assert run_cli(capsys, "build", "--family", "star", "--p", "7",
                   "--output", str(src))[0] == 0
    code, _, _ = run_cli(
        capsys, "render", "--input", str(src), "--output", str(dst),
        "--circumcircle", "--centerline")
    assert code == 0
    root = ET.fromstring(dst.read_text())
    kinds = [el.tag.split("}")[-1] for el in root]
    assert kinds.count("polygon") == 7
    assert kinds.count("circle") == 1


@pytest.mark.parametrize("flag", ["--scale", "--epsilon-display"])
def test_render_rejects_infinite_sizes(capsys, tmp_path, flag):
    src = tmp_path / "star.json"
    src.write_text(run_cli(capsys, "build", "--family", "star", "--p", "7")[1])
    code, out, err = run_cli(capsys, "render", "--input", str(src), flag, "inf")
    assert code == 2
    assert out == "" and "finite" in err


def test_render_rejects_overflowing_scale(capsys, tmp_path):
    # the scale is finite, but the drawing's extent times it is not
    src = tmp_path / "star.json"
    dst = tmp_path / "star.svg"
    src.write_text(run_cli(capsys, "build", "--family", "star", "--p", "7")[1])
    code, out, err = run_cli(
        capsys, "render", "--input", str(src), "--scale", "1e308", "--output", str(dst))
    assert code == 2
    assert out == "" and "finite" in err
    assert not dst.exists()


def test_render_determinism(capsys, tmp_path):
    src = tmp_path / "wrap.json"
    run_cli(capsys, "build", "--family", "even-wrap", "--q", "3",
            "--output", str(src))
    code_a, out_a, _ = run_cli(capsys, "render", "--input", str(src))
    code_b, out_b, _ = run_cli(capsys, "render", "--input", str(src))
    assert code_a == code_b == 0
    assert out_a == out_b


def test_identify_match(capsys):
    code, out, _ = run_cli(
        capsys, "identify", "--family", "odd-wrap", "--q", "2",
        "--expected", "3,2")
    assert code == 0
    assert "MATCH" in out and "crossings=5" in out


def test_identify_mismatch_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "identify", "--family", "odd-wrap", "--q", "2",
        "--expected", "7,2")
    assert code == 1
    assert "MISMATCH" in out


def test_identify_json_payload(capsys, tmp_path):
    src = tmp_path / "p.json"
    run_cli(capsys, "build", "--family", "star", "--p", "7",
            "--output", str(src))
    code, out, _ = run_cli(
        capsys, "identify", "--input", str(src), "--expected", "7,2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["matches"] is True
    assert payload["crossings"] == len(payload["gauss"]) // 2
    assert payload["determinant"] == 7
    assert (payload["certificate"], payload["handedness"]) == ("diagram", 1)


def test_identify_json_deterministic(capsys):
    args = ("identify", "--family", "pinwheel", "--q", "2", "--json")
    assert run_cli(capsys, *args)[1] == run_cli(capsys, *args)[1]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--family", "odd-wrap"),
        ("build", "--family", "star", "--p", "8"),
        ("build", "--family", "odd-wrap", "--q", "1"),
        ("build", "--family", "star", "--p", "7", "--presentation", "truncated"),
        ("identify", "--family", "odd-wrap", "--q", "2", "--expected", "3;2"),
        ("identify",),
        ("table", "--q-max", "1"),
        ("render", "--input", "/nonexistent/path.json"),
        ("verify", "--family", "short-52", "--epsilon", "nan"),
        # a parameter flag the family does not take
        ("verify", "--family", "rect74", "--q", "3"),
        ("build", "--family", "odd-wrap", "--q", "3", "--p", "4"),
        ("identify", "--family", "star", "--p", "7", "--q", "2"),
        # family flags next to a program file
        ("identify", "--input", "{prog}", "--q", "3"),
        # a tolerance must be finite and >= 0
        ("verify", "--family", "rect74", "--tolerance", "nan"),
        ("verify", "--family", "rect74", "--tolerance", "-1"),
        ("verify", "--family", "rect74", "--tolerance", "inf"),
        # an epsilon whose limit defect would be float noise
        ("verify", "--family", "short-52", "--epsilon", "1e-300"),
        # a torus knot too large to build a reference polynomial for
        ("identify", "--family", "star", "--p", "7", "--expected", "99999999999999999999,2"),
        # a parameter past 10**5 panels, rejected before anything is built
        ("verify", "--family", "odd-wrap", "--q", "10000000"),
        # a removed flag: coincident runs are displaced by 1e-3 widths
        ("identify", "--family", "rect74", "--perturbation", "0.3"),
        # open strips have no knot diagram, refused before any line is written
        ("verify", "--family", "odd-wrap", "--q", "3", "--presentation", "truncated",
         "--knot-check"),
        # --variant and --epsilon where nothing reads them
        ("identify", "--input", "{prog}", "--epsilon", "0.01"),
        ("identify", "--input", "{prog}", "--variant", "2"),
        ("build", "--family", "odd-wrap", "--q", "3", "--variant", "4"),
        ("verify", "--family", "star", "--p", "7", "--variant", "2"),
        ("identify", "--family", "rect74", "--variant", "2"),
        ("build", "--family", "rect74", "--epsilon", "0.01"),
        ("verify", "--family", "even-wrap", "--q", "3", "--epsilon", "1e-3"),
        ("identify", "--family", "odd-wrap", "--q", "3", "--epsilon", "0.01"),
        # the short variants are checked against 10*epsilon, not a tolerance
        ("verify", "--family", "short-52", "--tolerance", "0"),
        ("verify", "--family", "short-52", "--tolerance", "1e-300"),
        ("verify", "--family", "short-72", "--epsilon", "3e-3", "--tolerance", "1e-9"),
        # the bounds table has no q or p to cap
        ("table", "--bounds", "--q-max", "1"),
        ("table", "--bounds", "--q-max", "5", "--p-max", "9"),
        ("table", "--bounds", "--format", "markdown", "--p-max", "25"),
    ],
)
def test_usage_errors_exit_two(capsys, tmp_path, argv):
    # {prog} is a valid program file, so only the flags can be refused
    prog = tmp_path / "prog.json"
    prog.write_text(run_cli(capsys, "build", "--family", "star", "--p", "7")[1])
    code, out, err = run_cli(capsys, *[arg.replace("{prog}", str(prog)) for arg in argv])
    assert code == 2
    assert out == "" and err
    assert "Traceback" not in err


@pytest.mark.parametrize("output", ["missing/x.json", "outdir"],
                         ids=["missing-directory", "existing-directory"])
def test_unwritable_output_names_the_requested_path(capsys, tmp_path, output):
    (tmp_path / "outdir").mkdir()
    path = str(tmp_path / output)
    argv = ("build", "--family", "odd-wrap", "--q", "3", "--output", path)
    first, second = run_cli(capsys, *argv), run_cli(capsys, *argv)
    assert first == second
    code, out, err = first
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.endswith(": %r\n" % path)
    assert ".ribbonfold-" not in err
    # the temporary file of the write-then-rename is gone
    assert [p.name for p in tmp_path.iterdir()] == ["outdir"]
    assert list((tmp_path / "outdir").iterdir()) == []


def test_even_wrap_defaults_to_variant_two(capsys):
    plain = run_cli(capsys, "build", "--family", "even-wrap", "--q", "3")
    assert plain == run_cli(capsys, "build", "--family", "even-wrap", "--q", "3",
                            "--variant", "2")
    assert plain[0] == 0
    assert plain != run_cli(capsys, "build", "--family", "even-wrap", "--q", "3",
                            "--variant", "4")


# each case maps the start cut object to its malformed replacement, and
# names a word the error message must hold
MALFORMED_CUTS = [
    pytest.param(lambda cut: dict(cut, angle_den="2"), "angle_den", id="2"),
    pytest.param(lambda cut: dict(cut, angle_den=None), "angle_den", id="None"),
    pytest.param(lambda cut: dict(cut, angle_den=True), "angle_den", id="True"),
    pytest.param(lambda cut: {"angle_num": 1, "angle_den": 2}, "position", id="no-position"),
    pytest.param(lambda cut: [1, 2], "start_cut", id="list"),
    pytest.param(lambda cut: "x", "start_cut", id="string"),
]


@pytest.mark.parametrize("malform,word", MALFORMED_CUTS)
@pytest.mark.parametrize("command", ["identify", "render"])
def test_malformed_cut_angle_exits_two(capsys, tmp_path, command, malform, word):
    doc = json.loads(run_cli(
        capsys, "build", "--family", "odd-wrap", "--q", "3",
        "--presentation", "truncated")[1])
    doc["start_cut"] = malform(doc["start_cut"])
    bad = tmp_path / "cut.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--input", str(bad))
    assert code == 2
    assert out == "" and word in err


@pytest.mark.parametrize("flag", ["--q", "--p"])
def test_identify_input_rejects_family_flags(capsys, tmp_path, flag):
    program = tmp_path / "rect.json"
    program.write_text(run_cli(capsys, "build", "--family", "rect74")[1])
    assert run_cli(capsys, "identify", "--input", str(program))[0] == 0
    code, out, err = run_cli(capsys, "identify", "--input", str(program), flag, "3")
    assert code == 2
    assert out == "" and flag in err


def test_verify_short_52_where_angles_once_snapped(capsys):
    # its first crease used to snap to 336/673 pi, and layout then
    # raised ClosureError
    code, out, _ = run_cli(capsys, "verify", "--family", "short-52",
                           "--epsilon", "0.0035022622413135")
    assert code == 0
    assert out.endswith("verify: PASS\n")


@pytest.mark.parametrize("command", ["identify", "render"])
@pytest.mark.parametrize("content", [
    pytest.param(b"{\"width\": -1", id="truncated"),
    # both once ended in a bare traceback with exit code 1
    pytest.param(b"\xff\xfe", id="not-utf8"),
    pytest.param(b"[" * 200000 + b"]" * 200000, id="nested-past-recursion-limit"),
])
def test_malformed_program_file_exits_two(capsys, tmp_path, command, content):
    bad = tmp_path / "bad.json"
    bad.write_bytes(content)
    code, out, err = run_cli(capsys, command, "--input", str(bad))
    assert code == 2
    assert out == "" and err.startswith("error: ")
    assert "Traceback" not in err


def test_crease_line_lost_to_rounding_exits_two(capsys, tmp_path):
    # FoldProgram accepts this crease; layout finds no line to reflect across
    program = FoldProgram(1.0, (CreaseSpec(1e17, ExactAngle(1, 10**17)),),
                          presentation="truncated", start_cut=CutSpec(0.0),
                          end_cut=CutSpec(2e17))
    src = tmp_path / "steep.json"
    src.write_text(program.to_json())
    code, out, err = run_cli(capsys, "render", "--input", str(src))
    assert code == 2
    assert out == "" and "crease 0 at position 1e+17" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("gone", ["start_cut", "end_cut"])
@pytest.mark.parametrize("command", ["identify", "render"])
def test_truncated_program_without_a_cut_exits_two(capsys, tmp_path, command, gone):
    # a truncated document names both of its cuts
    doc = json.loads(run_cli(capsys, "build", "--family", "odd-wrap", "--q", "3",
                             "--presentation", "truncated")[1])
    del doc[gone]
    bad = tmp_path / "open.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--input", str(bad))
    assert code == 2
    assert out == "" and "a truncated program needs a CutSpec at each end" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["identify", "render"])
def test_angle_denominator_past_the_bound_exits_two(capsys, tmp_path, command):
    # a quarter turn give or take pi/10**601: read, laid out and identified
    # until ExactAngle bounded its denominator
    doc = json.loads(run_cli(capsys, "build", "--family", "odd-wrap", "--q", "3",
                             "--presentation", "truncated")[1])
    doc["start_cut"].update(angle_num=10**601 // 2 + 1, angle_den=10**601)
    bad = tmp_path / "huge.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, command, "--input", str(bad))
    assert code == 2
    assert out == "" and "angle denominator must be at most 10**600" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("mode,message", [
    ("alternating", "unknown weave mode"),
    ("layers", "unknown weave mode"),
    ("explicit", "unknown weave mode"),
    ({"mode": "torus"}, "weave must be a string"),
    ({"mode": "explicit", "pairs": [[0, 2, 1]]}, "weave must be a string"),
], ids=["alternating", "layers", "explicit", "torus-object", "explicit-object"])
def test_removed_weave_mode_exits_two(capsys, tmp_path, mode, message):
    doc = json.loads(run_cli(capsys, "build", "--family", "star", "--p", "7")[1])
    doc["weave"] = mode
    bad = tmp_path / "weave.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "identify", "--input", str(bad))
    assert code == 2
    assert out == "" and message in err
    assert "Traceback" not in err


def test_unknown_arguments_exit_two(capsys):
    assert main(["build", "--family", "odd-wrap", "--q", "3", "--frob"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


# runs one command as ``python -m ribbonfold.cli`` does, then writes the
# ribbonfold modules it loaded to the file named first
MODULE_SET_SCRIPT = """
import json, runpy, sys
out = sys.argv.pop(1)
try:
    runpy.run_module("ribbonfold.cli", run_name="__main__", alter_sys=True)
finally:
    with open(out, "w") as handle:
        json.dump(sorted(m for m in sys.modules if m.startswith("ribbonfold")), handle)
"""
SHARED_MODULES = ["ribbonfold", "ribbonfold.constructions", "ribbonfold.errors",
                  "ribbonfold.fold_core"]


@pytest.mark.parametrize("argv,extra", [
    pytest.param(["build", "--family", "odd-wrap", "--q", "3"], [], id="build"),
    pytest.param(["table", "--quotients"], ["formulas"], id="table-quotients"),
    pytest.param(["table", "--bounds"], ["formulas"], id="table-bounds"),
    pytest.param(["verify", "--family", "odd-wrap", "--q", "3"], ["formulas"], id="verify"),
    pytest.param(["verify", "--family", "odd-wrap", "--q", "3", "--knot-check"],
                 ["braid", "determinant", "formulas", "knot_id"], id="verify-knot-check"),
    pytest.param(["render", "--input", "program.json"], ["render"], id="render"),
    pytest.param(["identify", "--input", "program.json"], ["braid", "determinant", "knot_id"],
                 id="identify-input"),
    pytest.param(["identify", "--family", "odd-wrap", "--q", "3"],
                 ["braid", "determinant", "knot_id"], id="identify-family"),
])
def test_command_loads_only_the_modules_it_runs(tmp_path, argv, extra):
    (tmp_path / "program.json").write_text(build(FamilyId("odd_wrap", 3)).to_json())
    (tmp_path / "modules.py").write_text(MODULE_SET_SCRIPT)
    src = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir, "src"))
    result = subprocess.run(
        [sys.executable, "modules.py", "modules.json"] + argv,
        cwd=tmp_path, env=dict(os.environ, PYTHONPATH=src),
        capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    loaded = json.loads((tmp_path / "modules.json").read_text())
    assert loaded == sorted(SHARED_MODULES + ["ribbonfold." + name for name in extra])
