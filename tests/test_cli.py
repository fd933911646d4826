"""End-to-end tests of the command line front end."""

import hashlib
import json
import os
import xml.etree.ElementTree as ET

import pytest

from ribbonfold.cli import main
from ribbonfold.fold_core import CreaseSpec, ExactAngle, FoldProgram, layout


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


def test_verify_failure_exits_one(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "--family", "rect74", "--tolerance", "1e-20")
    assert code == 1
    assert out.rstrip().endswith("FAIL")


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
        "50dbd9f93fd734265fd9bbb7807a9daa4e716250215b7fdc67ced0a9c609abc4",
    ("--bounds", "markdown"):
        "dc727237c5ea756ce72139eb8422b5a2aa463509b5252c5afec93af4db088bc2",
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
        "a0beb3a287d462dec31648a46aa41083376aab80da5bd94be103ec1a55332561"),
    "verify-rect74": (
        ("verify", "--family", "rect74", "--knot-check"), 0,
        "a7b4e0e1f86052feabd1bd197cb2ede3e75603a4630215f8dfd1f6ce840a8189"),
    "verify-short-52": (
        ("verify", "--family", "short-52", "--epsilon", "0.003", "--knot-check"), 0,
        "cf90f8646011d68c46c7a63d66750a1ea812f8527b4eafe72be07b72be15acbe"),
    "identify-odd-wrap-5": (
        ("identify", "--family", "odd-wrap", "--q", "5"), 0,
        "78d2be8eafd1c75a4613d9e402c1ea2d5fa8b6103f3007decab2f06a41a46635"),
    "identify-odd-wrap-5-expected-json": (
        ("identify", "--family", "odd-wrap", "--q", "5", "--expected", "6,5", "--json"), 0,
        "6768b5c496d181848718ad4ba94679f46572f777f07da962c6ae08eb3ae9a02a"),
    "identify-odd-wrap-5-mismatch": (
        ("identify", "--family", "odd-wrap", "--q", "5", "--expected", "7,2"), 1,
        "81f1b1b9b8662f2143ece3a2c651c435c3457f883ab367ae54554c934a0735da"),
    "identify-rect74-input": (
        ("identify", "--input", RECT), 0,
        "a538bad3da40c8bfe580474937d9f77e1a3674d1659cb5643c4ad0a99fd88ffe"),
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
        ("identify", "--input", "/nonexistent/path.json", "--q", "3"),
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
    ],
)
def test_usage_errors_exit_two(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == "" and err


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


def test_malformed_program_file_exits_two(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"width\": -1")
    code, _, err = run_cli(capsys, "render", "--input", str(bad))
    assert code == 2 and err


def test_crease_line_lost_to_rounding_exits_two(capsys, tmp_path):
    # FoldProgram accepts this crease; layout finds no line to reflect across
    program = FoldProgram(1.0, (CreaseSpec(1e17, ExactAngle(1, 10**17)),),
                          presentation="truncated")
    src = tmp_path / "steep.json"
    src.write_text(program.to_json())
    code, out, err = run_cli(capsys, "render", "--input", str(src))
    assert code == 2
    assert out == "" and "crease 0 at position 1e+17" in err
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


@pytest.mark.parametrize("pairs", [[[0, 1]], [5]])
def test_malformed_weave_pairs_exit_two(capsys, tmp_path, pairs):
    doc = json.loads(run_cli(capsys, "build", "--family", "star", "--p", "7")[1])
    doc["weave"] = {"mode": "explicit", "pairs": pairs}
    bad = tmp_path / "weave.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "identify", "--input", str(bad))
    assert code == 2
    assert out == "" and "weave pair" in err


def test_unknown_arguments_exit_two(capsys):
    assert main(["build", "--family", "odd-wrap", "--q", "3", "--frob"]) == 2
    capsys.readouterr()


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
