"""Flat folded ribbon geometry, ratio formulas, and knot certification.

``import ribbonfold`` loads none of its modules: a public name, or one of
the submodules named in ``_EXPORTS``, loads its home module on first
access, so a program compiles only the modules it uses.
"""

import importlib

__version__ = "0.1.0"

# home module -> the public names the package re-exports from it
_EXPORTS = {
    "errors": (
        "ClosureError", "DegenerateDiagramError", "InconsistencyError",
        "InvalidDiagramError", "InvalidInputError", "LayeringInconsistencyError",
        "MalformedProgramError", "NotApplicableError", "ParameterError", "RibbonError",
    ),
    "fold_core": (
        "CreaseSpec", "CutSpec", "ExactAngle", "FoldProgram", "FoldedLayout", "Panel",
        "centerline_length", "layout", "layout_from_centerline", "ratio", "unfold",
    ),
    "constructions": (
        "FAMILY_TAGS", "FamilyId", "TorusKnotParams", "build", "knot_type",
    ),
    "formulas": (
        "BoundsRow", "RatioFormula", "RatioReport", "bounds_table", "closed_form_ratio",
        "crossing_number", "family_crossing_number", "kusner_quotient", "limit_constant",
        "quotient_table", "ratio_report", "ratio_reports", "significant",
    ),
    "render": ("RenderOptions", "render_table_figure", "to_svg"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = [*_HOME, "__version__"]


def __getattr__(name: str):
    if name in _EXPORTS:
        return importlib.import_module("." + name, __name__)
    home = _HOME.get(name)
    if home is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    # Read through the home module on every access and bind nothing here:
    # perfbench's tracer rebinds functions in each module's namespace, and
    # a binding copied in while it was installed would outlive its removal.
    module = globals().get(home) or importlib.import_module("." + home, __name__)
    return getattr(module, name)


def __dir__():
    return list(__all__)
