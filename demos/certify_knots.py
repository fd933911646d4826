"""Certify the knot type of every construction from its diagram.

Each closed fold's centerline becomes a knot diagram (coincident runs
displaced apart deterministically), and the diagram's Alexander
polynomial is compared against the target torus knot's.  The rectangle
fold is checked against the 7_4 polynomial instead.  Every case goes
through ``knot_id.certification_report``, the same check as
``ribbonfold verify --knot-check``.
"""

from ribbonfold import FamilyId, build, knot_type, layout
from ribbonfold.knot_id import alexander_polynomial, certification_report, extract_diagram

CASES = (
    FamilyId("odd_wrap", 2),
    FamilyId("odd_wrap", 3),
    FamilyId("odd_wrap", 4),
    FamilyId("star_polygon", 7),
    FamilyId("star_polygon", 9),
    FamilyId("pinwheel", 2),
    FamilyId("pinwheel", 3),
    FamilyId("even_wrap_plus2", 3),
    FamilyId("even_wrap_plus2", 5),
    FamilyId("even_wrap_plus4", 3),
    FamilyId("short_52"),
    FamilyId("short_72"),
    FamilyId("rect_74"),
)


def main():
    failures = 0
    for family in CASES:
        diagram = extract_diagram(layout(build(family)))
        report = certification_report(diagram, alexander_polynomial(diagram), family)
        if knot_type(family) is None:
            label = family.tag
        else:
            label = "%s(%s)" % (family.tag, family.parameter)
        print("%-22s %s" % (label, report.summary()))
        failures += 0 if report.matches else 1

    print("failures:", failures)
    raise SystemExit(0 if failures == 0 else 1)


if __name__ == "__main__":
    main()
