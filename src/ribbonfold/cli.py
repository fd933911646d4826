"""Command line front end for building, verifying, and drawing folds.

Exit codes follow the usual convention: 0 success, 1 a verification or
certification that ran and failed, 2 malformed arguments or input.
File output is write-then-rename so a crash never leaves a partial
file behind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from .constructions import _FAMILIES, FamilyId, build, knot_type
from .errors import ClosureError, RibbonError
from .fold_core import FoldedLayout, FoldProgram, layout, ratio
from .formulas import _bounds_text, closed_form_ratio, quotient_table
from .knot_id import (
    LaurentPolynomial,
    _certification_report,
    alexander_polynomial,
    extract_diagram,
)
from .render import RenderOptions, to_svg

__all__ = ["CommandConfig", "main", "parse_args", "run"]

# the two even wraps share one name and differ by --variant
_FAMILY_CHOICES = tuple(dict.fromkeys(spec.cli_name for spec in _FAMILIES.values()))


class _UsageError(Exception):
    pass


@dataclass(frozen=True)
class CommandConfig:
    """Validated invocation of one subcommand."""

    subcommand: str
    family: Optional[str] = None
    q: Optional[int] = None
    p: Optional[int] = None
    variant: int = 2
    epsilon: float = 1e-3
    presentation: str = "closed"
    tolerance: float = 1e-9
    knot_check: bool = False
    table_kind: str = "quotients"
    format: str = "csv"
    q_max: int = 12
    p_max: int = 25
    input_path: Optional[str] = None
    output_path: Optional[str] = None
    expected: Optional[Tuple[int, int]] = None
    as_json: bool = False
    perturbation: Optional[float] = None
    scale: float = 40.0
    epsilon_display: float = 0.0
    show_circumcircle: bool = False
    show_centerline: bool = False
    show_creases: bool = True


def _add_family_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--family", choices=_FAMILY_CHOICES, required=required)
    parser.add_argument("--q", type=int, help="turning parameter for wrap families")
    parser.add_argument("--p", type=int, help="point count for the star family")
    parser.add_argument("--variant", type=int, choices=(2, 4), default=2,
                        help="panel surplus for even-wrap (default 2)")
    parser.add_argument("--epsilon", type=float, default=1e-3,
                        help="offset for the short variants (default 1e-3)")


def parse_args(argv: Optional[Sequence[str]] = None) -> CommandConfig:
    parser = argparse.ArgumentParser(
        prog="ribbonfold",
        description="Build, verify, tabulate, identify, and draw flat ribbon folds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    build_p = sub.add_parser("build", help="write a fold program as JSON")
    _add_family_arguments(build_p)
    build_p.add_argument("--presentation", choices=("closed", "truncated"),
                         default="closed")
    build_p.add_argument("--output", help="path to write (default stdout)")

    verify_p = sub.add_parser(
        "verify", help="re-measure a family and compare with its closed form")
    _add_family_arguments(verify_p)
    verify_p.add_argument("--presentation", choices=("closed", "truncated"),
                          default="closed")
    verify_p.add_argument("--tolerance", type=float, default=1e-9,
                          help="relative tolerance (default 1e-9); short variants"
                               " instead allow a defect of up to 10*epsilon below"
                               " their limit ratio")
    verify_p.add_argument("--knot-check", action="store_true",
                          help="also certify the knot type from the diagram")

    table_p = sub.add_parser("table", help="write the quotient or bounds table")
    group = table_p.add_mutually_exclusive_group()
    group.add_argument("--quotients", dest="table_kind", action="store_const",
                       const="quotients", default="quotients")
    group.add_argument("--bounds", dest="table_kind", action="store_const",
                       const="bounds")
    table_p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    table_p.add_argument("--q-max", type=int, default=12)
    table_p.add_argument("--p-max", type=int, default=25)
    table_p.add_argument("--output", help="path to write (default stdout)")

    render_p = sub.add_parser("render", help="draw a fold program JSON as SVG")
    render_p.add_argument("--input", required=True, help="fold program JSON path")
    render_p.add_argument("--output", help="path to write (default stdout)")
    render_p.add_argument("--scale", type=float, default=40.0)
    render_p.add_argument("--epsilon-display", type=float, default=0.0)
    render_p.add_argument("--circumcircle", action="store_true")
    render_p.add_argument("--centerline", action="store_true")
    render_p.add_argument("--no-creases", action="store_true")

    identify_p = sub.add_parser(
        "identify", help="extract the knot diagram and its invariants")
    identify_p.add_argument("--input", help="fold program JSON path")
    _add_family_arguments(identify_p, required=False)
    identify_p.add_argument("--expected",
                            help="torus parameters 'p,q' to certify against")
    identify_p.add_argument("--perturbation", type=float,
                            help="displacement for coincident runs")
    identify_p.add_argument("--json", dest="as_json", action="store_true")

    args = parser.parse_args(argv)
    fields = {
        "subcommand": args.subcommand,
        "family": getattr(args, "family", None),
        "q": getattr(args, "q", None),
        "p": getattr(args, "p", None),
        "variant": getattr(args, "variant", 2),
        "epsilon": getattr(args, "epsilon", 1e-3),
        "presentation": getattr(args, "presentation", "closed"),
        "tolerance": getattr(args, "tolerance", 1e-9),
        "knot_check": getattr(args, "knot_check", False),
        "table_kind": getattr(args, "table_kind", "quotients"),
        "format": getattr(args, "format", "csv"),
        "q_max": getattr(args, "q_max", 12),
        "p_max": getattr(args, "p_max", 25),
        "input_path": getattr(args, "input", None),
        "output_path": getattr(args, "output", None),
        "expected": _parse_expected(getattr(args, "expected", None)),
        "as_json": getattr(args, "as_json", False),
        "perturbation": getattr(args, "perturbation", None),
        "scale": getattr(args, "scale", 40.0),
        "epsilon_display": getattr(args, "epsilon_display", 0.0),
        "show_circumcircle": getattr(args, "circumcircle", False),
        "show_centerline": getattr(args, "centerline", False),
        "show_creases": not getattr(args, "no_creases", False),
    }
    return CommandConfig(**fields)


def _parse_expected(text: Optional[str]) -> Optional[Tuple[int, int]]:
    if text is None:
        return None
    parts = text.split(",")
    if len(parts) != 2:
        raise _UsageError("--expected needs the form 'p,q'")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise _UsageError("--expected needs two integers 'p,q'")


def _family_id(config: CommandConfig) -> FamilyId:
    name = config.family
    rows = [(tag, spec) for tag, spec in _FAMILIES.items()
            if spec.cli_name == name and spec.variant in (None, config.variant)]
    if not rows:
        raise _UsageError("a --family is required" if name is None
                          else "unknown --family %r" % name)
    tag, spec = rows[0]
    for flag in ("q", "p"):
        given = getattr(config, flag) is not None
        if flag == spec.flag and not given:
            raise _UsageError("--family %s needs --%s" % (name, flag))
        if flag != spec.flag and given:
            raise _UsageError("--family %s takes no --%s" % (name, flag))
    return FamilyId(tag, getattr(config, spec.flag) if spec.flag else None)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".ribbonfold-")
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp, target)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _build_program(config: CommandConfig) -> FoldProgram:
    family = _family_id(config)
    return build(family, presentation=config.presentation, epsilon=config.epsilon)


def _certify(family: FamilyId, lay: FoldedLayout, perturbation: Optional[float] = None):
    """Certify the knot a family's layout ties, as (ok, summary line).

    Torus families are compared with their torus reference; a family the
    table gives Alexander coefficients for is compared with those.
    """
    diagram = extract_diagram(lay, perturbation)
    delta = alexander_polynomial(diagram)
    params = knot_type(family)
    if params is not None:
        report = _certification_report(diagram, delta, (params.p, params.q))
        return report.matches, report.summary()
    reference = LaurentPolynomial(dict(enumerate(_FAMILIES[family.tag].knot))).normalized()
    ok = delta == reference
    return ok, "Alexander %s vs %s -> %s" % (delta, reference, "MATCH" if ok else "MISMATCH")


def _run_verify(config: CommandConfig) -> int:
    family = _family_id(config)
    formula = closed_form_ratio(family, config.presentation)
    # build first: a rejected parameter exits 2 before anything is written
    program = build(family, presentation=config.presentation, epsilon=config.epsilon)
    out = sys.stdout
    out.write("family=%s presentation=%s\n" % (family.tag, config.presentation))
    try:
        lay = layout(program)
        measured = ratio(lay)
    except ClosureError as exc:
        out.write("verify: FAIL (layout does not close: %s)\n" % exc)
        return 1
    out.write("measured_ratio=%r\n" % measured)
    out.write("closed_form=%r (%s)%s\n"
              % (formula.value, formula.symbolic(),
                 " [limit]" if formula.limit else ""))
    if formula.limit:
        defect = formula.value - measured
        allowed = 10.0 * config.epsilon
        ok = 0.0 < defect <= allowed
        out.write("limit_defect=%r allowed=%r -> %s\n"
                  % (defect, allowed, "OK" if ok else "FAIL"))
    else:
        rel = abs(measured - formula.value) / abs(formula.value)
        ok = rel <= config.tolerance
        out.write("relative_error=%r tolerance=%r -> %s\n"
                  % (rel, config.tolerance, "OK" if ok else "FAIL"))
    if config.knot_check:
        cert_ok, line = _certify(family, lay, config.perturbation)
        out.write("knot_check: %s\n" % line)
        ok = ok and cert_ok
    out.write("verify: %s\n" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _run_identify(config: CommandConfig) -> int:
    if (config.input_path is None) == (config.family is None):
        raise _UsageError("identify needs exactly one of --input or --family")
    if config.input_path is not None:
        for flag in ("q", "p"):
            if getattr(config, flag) is not None:
                raise _UsageError("identify --input takes no --%s" % flag)
        with open(config.input_path, "r", encoding="utf-8") as handle:
            program = FoldProgram.from_json(handle.read())
    else:
        program = _build_program(config)
    diagram = extract_diagram(layout(program), config.perturbation)
    delta = alexander_polynomial(diagram)
    det = abs(int(delta.evaluate(-1)))
    matches = None
    if config.expected is not None:
        matches = _certification_report(diagram, delta, config.expected).matches
    if config.as_json:
        payload = {
            "crossings": diagram.crossing_count,
            "gauss": [[i, bool(over), sign] for i, over, sign in diagram.gauss],
            "alexander": {str(e): c for e, c in sorted(delta.coefficients.items())},
            "determinant": det,
            "expected": list(config.expected) if config.expected else None,
            "matches": matches,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write("crossings=%d\n" % diagram.crossing_count)
        sys.stdout.write("gauss=%s\n"
                         % json.dumps([[i, bool(o), s] for i, o, s in diagram.gauss]))
        sys.stdout.write("alexander=%s\n" % delta)
        sys.stdout.write("determinant=%d\n" % det)
        if config.expected is not None:
            sys.stdout.write("expected=(%d,%d) -> %s\n"
                             % (config.expected[0], config.expected[1],
                                "MATCH" if matches else "MISMATCH"))
    if matches is False:
        return 1
    return 0


def run(config: CommandConfig) -> int:
    if config.subcommand == "build":
        program = _build_program(config)
        _write_text(config.output_path, program.to_json() + "\n")
        return 0
    if config.subcommand == "verify":
        return _run_verify(config)
    if config.subcommand == "table":
        if config.table_kind == "bounds":
            text = _bounds_text(config.format)
        else:
            text = quotient_table(config.q_max, config.p_max, config.format)
        _write_text(config.output_path, text)
        return 0
    if config.subcommand == "render":
        with open(config.input_path, "r", encoding="utf-8") as handle:
            program = FoldProgram.from_json(handle.read())
        options = RenderOptions(
            epsilon_display=config.epsilon_display,
            show_creases=config.show_creases,
            show_circumcircle=config.show_circumcircle,
            show_centerline=config.show_centerline,
            scale=config.scale,
        )
        _write_text(config.output_path, to_svg(layout(program), options))
        return 0
    return _run_identify(config)


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        config = parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return run(config)
    except _UsageError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except FileNotFoundError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except RibbonError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2
    except OSError as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
