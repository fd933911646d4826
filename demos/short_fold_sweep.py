"""Shrink the short folds toward their limit ratios.

The short (5,2) and (7,2) presentations trade panel count for tightly
interleaved panels offset by a small epsilon.  Their measured ratios
approach 7*cot(pi/5) and 9*cot(pi/5) linearly in epsilon, so the
defect divided by epsilon settles to a constant.
"""

from ribbonfold import (
    FamilyId,
    build,
    closed_form_ratio,
    layout,
    ratio,
)

EPSILONS = (3e-2, 1e-2, 3e-3, 1e-3, 3e-4, 1e-4)


def sweep(name, family):
    limit = closed_form_ratio(family).value
    print("%s: limit %s = %.12f" % (name, closed_form_ratio(family).symbolic(), limit))
    print("  epsilon     measured ratio      defect        defect/epsilon")
    for eps in EPSILONS:
        measured = ratio(layout(build(family, epsilon=eps)))
        defect = limit - measured
        print("  %-9g  %.12f  %.6e  %8.4f"
              % (eps, measured, defect, defect / eps))
    print()


def main():
    sweep("short_52", FamilyId("short_52"))
    sweep("short_72", FamilyId("short_72"))


if __name__ == "__main__":
    main()
