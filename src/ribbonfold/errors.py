"""Shared exception types for the ribbonfold package."""


class RibbonError(Exception):
    """Base class for all errors raised by this package."""


class InvalidInputError(RibbonError):
    """An argument is outside the domain of the operation."""


class MalformedProgramError(RibbonError):
    """A fold program violates a structural requirement."""


class ClosureError(RibbonError):
    """A closed program's folded ends fail to meet within tolerance."""


class InconsistencyError(RibbonError):
    """Recovered geometry disagrees with itself beyond tolerance."""


class ParameterError(RibbonError):
    """A builder parameter is out of its documented range."""


class DegenerateDiagramError(RibbonError):
    """Centerline self-intersections are not transverse double points."""


class LayeringInconsistencyError(RibbonError):
    """Over/under at a crossing cannot be decided from panel layers."""


class InvalidDiagramError(RibbonError):
    """A Gauss code does not describe a knot diagram."""


class NotApplicableError(RibbonError):
    """The requested quantity is undefined for this family."""


def _expect_type(value, kind: type) -> None:
    """Raise InvalidInputError, naming both types, unless value is a kind."""
    if not isinstance(value, kind):
        raise InvalidInputError("expected a %s, got %s" % (kind.__name__, type(value).__name__))
