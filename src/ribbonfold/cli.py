"""Command line front end for building, verifying, and drawing folds.

Exit codes follow the usual convention: 0 success, 1 a verification or
certification that ran and failed, 2 malformed arguments or input.
File output is write-then-rename so a crash never leaves a partial
file behind.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Optional, Sequence, Tuple

# every command needs these three; a handler imports the other modules
# it runs, so a command compiles only those
from .constructions import _FAMILIES, FamilyId, build
from .errors import ClosureError, MalformedProgramError, RibbonError
from .fold_core import FoldProgram, layout, ratio

__all__ = ["main"]

# the two even wraps share one name and differ by --variant
_FAMILY_CHOICES = tuple(dict.fromkeys(spec.cli_name for spec in _FAMILIES.values()))


class _UsageError(Exception):
    pass


def _handedness(value: Optional[int]) -> str:
    return "none" if value is None else "%+d" % value


def _expected(text: str) -> Tuple[int, int]:
    parts = text.split(",")
    if len(parts) != 2:
        raise argparse.ArgumentTypeError("needs the form 'p,q'")
    try:
        return (int(parts[0]), int(parts[1]))
    except ValueError:
        raise argparse.ArgumentTypeError("needs two integers 'p,q'")


def _tolerance(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError("needs a number")
    if not (math.isfinite(value) and value >= 0):
        raise argparse.ArgumentTypeError("needs a finite number >= 0")
    return value


def _family_id(args: argparse.Namespace) -> Tuple[FamilyId, float]:
    """The family the flags name and the epsilon its builder reads; a flag
    that the family does not read is refused, one it needs is required."""
    name, variant = args.family, args.variant
    tag, spec = next((tag, spec) for tag, spec in _FAMILIES.items()
                     if spec.cli_name == name and spec.variant in (None, variant or 2))
    for flag in ("q", "p"):
        given = getattr(args, flag) is not None
        if flag == spec.flag and not given:
            raise _UsageError("--family %s needs --%s" % (name, flag))
        if flag != spec.flag and given:
            raise _UsageError("--family %s takes no --%s" % (name, flag))
    if variant is not None and spec.variant is None:
        raise _UsageError("--family %s takes no --variant" % name)
    if args.epsilon is not None and not spec.limit:
        raise _UsageError("--family %s takes no --epsilon" % name)
    family = FamilyId(tag, getattr(args, spec.flag) if spec.flag else None)
    return family, 1e-3 if args.epsilon is None else args.epsilon


def _read_program(path: str) -> FoldProgram:
    with open(path, "r", encoding="utf-8") as handle:
        try:
            text = handle.read()
        except UnicodeDecodeError as exc:
            raise MalformedProgramError("%s is not UTF-8 text: %s" % (path, exc)) from exc
    return FoldProgram.from_json(text)


def _write_text(path: Optional[str], text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    target = os.path.abspath(path)
    try:
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
    except OSError as exc:
        # name the requested path, not the temporary file's random name
        raise OSError(exc.errno, exc.strerror, path) from exc


def _run_build(args: argparse.Namespace) -> int:
    family, epsilon = _family_id(args)
    program = build(family, presentation=args.presentation, epsilon=epsilon)
    _write_text(args.output, program.to_json() + "\n")
    return 0


def _run_verify(args: argparse.Namespace) -> int:
    from .formulas import closed_form_ratio

    family, epsilon = _family_id(args)
    if args.tolerance is not None and _FAMILIES[family.tag].limit:
        raise _UsageError("--family %s takes no --tolerance" % args.family)
    if args.knot_check and args.presentation != "closed":
        raise _UsageError("verify --knot-check needs --presentation closed")
    formula = closed_form_ratio(family, args.presentation)
    # build first: a rejected parameter exits 2 before anything is written
    program = build(family, presentation=args.presentation, epsilon=epsilon)
    out = sys.stdout
    out.write("family=%s presentation=%s\n" % (family.tag, args.presentation))
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
        allowed = 10.0 * epsilon
        ok = 0.0 < defect <= allowed
        out.write("limit_defect=%r allowed=%r -> %s\n"
                  % (defect, allowed, "OK" if ok else "FAIL"))
    else:
        rel = abs(measured - formula.value) / abs(formula.value)
        tolerance = 1e-9 if args.tolerance is None else args.tolerance
        ok = rel <= tolerance
        out.write("relative_error=%r tolerance=%r -> %s\n"
                  % (rel, tolerance, "OK" if ok else "FAIL"))
    if args.knot_check:
        from .knot_id import certification_report, extract_diagram

        report = certification_report(extract_diagram(lay), family)
        out.write("knot_check: %s\n" % report.summary())
        out.write("knot_certificate: %s, handedness %s\n"
                  % (report.certificate, _handedness(report.handedness)))
        ok = ok and report.matches
    out.write("verify: %s\n" % ("PASS" if ok else "FAIL"))
    return 0 if ok else 1


def _run_table(args: argparse.Namespace) -> int:
    from .formulas import _bounds_text, quotient_table

    # a cap left out keeps quotient_table's own default
    caps = {key: value for key, value in vars(args).items()
            if key in ("q_max", "p_max") and value is not None}
    if args.table_kind == "bounds":
        if caps:
            raise _UsageError("table --bounds takes no --q-max or --p-max")
        text = _bounds_text(args.format)
    else:
        text = quotient_table(format=args.format, **caps)
    _write_text(args.output, text)
    return 0


def _run_render(args: argparse.Namespace) -> int:
    from .render import RenderOptions, to_svg

    program = _read_program(args.input)
    options = RenderOptions(
        epsilon_display=args.epsilon_display,
        show_creases=not args.no_creases,
        show_circumcircle=args.circumcircle,
        show_centerline=args.centerline,
        scale=args.scale,
    )
    _write_text(args.output, to_svg(layout(program), options))
    return 0


def _run_identify(args: argparse.Namespace) -> int:
    from .knot_id import certification_report, extract_diagram

    if (args.input is None) == (args.family is None):
        raise _UsageError("identify needs exactly one of --input or --family")
    if args.input is not None:
        for flag in ("q", "p", "variant", "epsilon"):
            if getattr(args, flag) is not None:
                raise _UsageError("identify --input takes no --%s" % flag)
        program = _read_program(args.input)
    else:
        family, epsilon = _family_id(args)
        program = build(family, epsilon=epsilon)
    report = certification_report(extract_diagram(layout(program)), args.expected)
    delta = report.alexander
    gauss = [[i, bool(over), sign] for i, over, sign in report.gauss]
    if args.as_json:
        payload = {
            "crossings": report.crossing_count,
            "gauss": gauss,
            "alexander": {str(e): c for e, c in sorted(delta.coefficients.items())},
            "determinant": report.determinant,
            "expected": list(args.expected) if args.expected else None,
            "matches": report.matches,
            "certificate": report.certificate,
            "handedness": report.handedness,
        }
        sys.stdout.write(json.dumps(payload, sort_keys=True) + "\n")
    else:
        sys.stdout.write("crossings=%d\n" % report.crossing_count)
        sys.stdout.write("gauss=%s\n" % json.dumps(gauss))
        sys.stdout.write("alexander=%s\n" % delta)
        sys.stdout.write("determinant=%d\n" % report.determinant)
        sys.stdout.write("certificate=%s\n" % report.certificate)
        sys.stdout.write("handedness=%s\n" % _handedness(report.handedness))
        if args.expected is not None:
            sys.stdout.write("expected=(%d,%d) -> %s\n"
                             % (args.expected[0], args.expected[1],
                                "MATCH" if report.matches else "MISMATCH"))
    return 1 if report.matches is False else 0


def _add_family_arguments(parser: argparse.ArgumentParser, required: bool = True) -> None:
    parser.add_argument("--family", choices=_FAMILY_CHOICES, required=required)
    parser.add_argument("--q", type=int, help="turning parameter for wrap families")
    parser.add_argument("--p", type=int, help="point count for the star family")
    parser.add_argument("--variant", type=int, choices=(2, 4),
                        help="panel surplus for even-wrap (default 2)")
    parser.add_argument("--epsilon", type=float,
                        help="offset for the short variants (default 1e-3)")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ribbonfold",
        description="Build, verify, tabulate, identify, and draw flat ribbon folds.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    build_p = sub.add_parser("build", help="write a fold program as JSON")
    build_p.set_defaults(handler=_run_build)
    _add_family_arguments(build_p)
    build_p.add_argument("--presentation", choices=("closed", "truncated"),
                         default="closed")
    build_p.add_argument("--output", help="path to write (default stdout)")

    verify_p = sub.add_parser(
        "verify", help="re-measure a family and compare with its closed form")
    verify_p.set_defaults(handler=_run_verify)
    _add_family_arguments(verify_p)
    verify_p.add_argument("--presentation", choices=("closed", "truncated"),
                          default="closed")
    verify_p.add_argument("--tolerance", type=_tolerance,
                          help="relative tolerance (default 1e-9); the short variants"
                               " take none: they allow a defect of up to 10*epsilon"
                               " below their limit ratio")
    verify_p.add_argument("--knot-check", action="store_true",
                          help="also certify the knot type from the diagram")

    table_p = sub.add_parser("table", help="write the quotient or bounds table")
    table_p.set_defaults(handler=_run_table)
    group = table_p.add_mutually_exclusive_group()
    group.add_argument("--quotients", dest="table_kind", action="store_const",
                       const="quotients", default="quotients")
    group.add_argument("--bounds", dest="table_kind", action="store_const",
                       const="bounds")
    table_p.add_argument("--format", choices=("csv", "markdown"), default="csv")
    table_p.add_argument("--q-max", type=int, help="largest q of --quotients (default 12)")
    table_p.add_argument("--p-max", type=int, help="largest p of --quotients (default 25)")
    table_p.add_argument("--output", help="path to write (default stdout)")

    render_p = sub.add_parser("render", help="draw a fold program JSON as SVG")
    render_p.set_defaults(handler=_run_render)
    render_p.add_argument("--input", required=True, help="fold program JSON path")
    render_p.add_argument("--output", help="path to write (default stdout)")
    render_p.add_argument("--scale", type=float, default=40.0)
    render_p.add_argument("--epsilon-display", type=float, default=0.0)
    render_p.add_argument("--circumcircle", action="store_true")
    render_p.add_argument("--centerline", action="store_true")
    render_p.add_argument("--no-creases", action="store_true")

    identify_p = sub.add_parser(
        "identify", help="extract the knot diagram and its invariants")
    identify_p.set_defaults(handler=_run_identify)
    identify_p.add_argument("--input", help="fold program JSON path")
    _add_family_arguments(identify_p, required=False)
    identify_p.add_argument("--expected", type=_expected,
                            help="torus parameters 'p,q' to certify against")
    identify_p.add_argument("--json", dest="as_json", action="store_true")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.handler(args)
    except (_UsageError, RibbonError, OSError) as exc:
        sys.stderr.write("error: %s\n" % exc)
        return 2


if __name__ == "__main__":
    sys.exit(main())
