"""Fold the 7_4 knot inside a 3 x 2 rectangle.

Sixteen unit-width panels traverse four coincident lanes of a 3 x 2
box, giving centerline length 24 at width 1.  The fold's diagram has
the 7_4 Alexander polynomial 4t^2 - 7t + 4 (determinant 15), which no
torus knot shares.
"""

import argparse
import os

from ribbonfold import RenderOptions, build_74, layout, ratio, to_svg
from ribbonfold.knot_id import (
    LaurentPolynomial,
    alexander_polynomial,
    extract_diagram,
)

SEVEN_FOUR = LaurentPolynomial({0: 4, 1: -7, 2: 4})


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=".", help="directory for SVG output")
    args = parser.parse_args()

    lay = layout(build_74())
    min_x, min_y, max_x, max_y = lay.bounding_box()
    print("panels:", len(lay.panels))
    print("ratio: %.12f" % ratio(lay))
    print("bounding box: %.1f x %.1f" % (max_x - min_x, max_y - min_y))

    diagram = extract_diagram(lay)
    delta = alexander_polynomial(diagram)
    print("crossings in diagram:", diagram.crossing_count)
    print("Alexander: %s (reference %s)" % (delta, SEVEN_FOUR))
    print("determinant:", abs(delta.evaluate(-1)))
    print("match:", delta == SEVEN_FOUR)

    path = os.path.join(args.output, "rectangle_74.svg")
    svg = to_svg(lay, RenderOptions(epsilon_display=0.06, show_centerline=True))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print("wrote", path)


if __name__ == "__main__":
    main()
