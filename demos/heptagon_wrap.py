"""Wrap a unit-width ribbon around a heptagon and measure it.

The q=3 odd wrap folds seven congruent isosceles trapezoid panels
whose corners all land on one circle.  Closing the loop costs one
extra panel; cutting it open drops the ratio from 7*cot(pi/7) to
6*cot(pi/7).
"""

import argparse
import math
import os

from ribbonfold import (
    FamilyId,
    RenderOptions,
    build,
    closed_form_ratio,
    layout,
    ratio,
    to_svg,
)


def side_length(panel, k):
    (ax, ay), (bx, by) = panel.side(k)
    return math.hypot(bx - ax, by - ay)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--output", default=".", help="directory for SVG output")
    args = parser.parse_args()

    q = 3
    family = FamilyId("odd_wrap", q)
    for presentation in ("closed", "truncated"):
        program = build(family, presentation=presentation)
        lay = layout(program)
        measured = ratio(lay)
        formula = closed_form_ratio(family, presentation)
        print("%s: %d panels, ratio %.12f vs %s = %.12f"
              % (presentation, len(lay.panels), measured,
                 formula.symbolic(), formula.value))

    lay = layout(build(family))
    first = lay.panels[0]
    print("panel sides: top %.6f, fold %.6f, base %.6f, fold %.6f"
          % tuple(side_length(first, k) for k in range(4)))

    starts = [seg[0] for seg in lay.centerline]
    cx = sum(p[0] for p in starts) / len(starts)
    cy = sum(p[1] for p in starts) / len(starts)
    reach = max(math.hypot(v[0] - cx, v[1] - cy)
                for panel in lay.panels for v in panel.vertices)
    print("corner circle radius: %.6f (= 1/(2 sin(pi/7)) = %.6f)"
          % (reach, 1.0 / (2.0 * math.sin(math.pi / 7))))

    path = os.path.join(args.output, "heptagon_wrap.svg")
    svg = to_svg(lay, RenderOptions(show_circumcircle=True, show_centerline=True))
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg)
    print("wrote", path)


if __name__ == "__main__":
    main()
