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


class _Record:
    """Base of the package's frozen record types.

    A record is equal to another of its own class whose ``_fields`` are
    equal, hashes and shows those fields, and cannot have a field set or
    deleted: each record's ``__init__`` checks its arguments and stores
    every field once with ``object.__setattr__``.  ``__match_args__``
    names the fields ``__init__`` takes, which ``_replace`` may change.
    """

    __slots__ = ()
    _fields: tuple = ()
    __match_args__: tuple = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self):
        return hash(self._values())

    def __repr__(self):
        return "%s(%s)" % (type(self).__qualname__, ", ".join(
            ["%s=%r" % (name, getattr(self, name)) for name in self._fields]))

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to field %r" % (name,))

    def __delattr__(self, name):
        raise AttributeError("cannot delete field %r" % (name,))

    # pickle and copy fill a __dict__ directly but would set a slot through
    # __setattr__, so a slotted record's state maps each slot to its value
    def __getstate__(self):
        return {name: getattr(self, name) for name in self.__slots__} or self.__dict__

    def __setstate__(self, state):
        for name, value in state.items():
            object.__setattr__(self, name, value)

    def _replace(self, **changes):
        """A copy with the named fields changed, built by ``__init__``;
        a derived field, which ``__init__`` does not take, raises ValueError."""
        for name in changes:
            if name not in self.__match_args__:
                raise ValueError("%s cannot replace %r, which its __init__ does not take"
                                 % (type(self).__name__, name))
        args = {name: getattr(self, name) for name in self.__match_args__}
        args.update(changes)
        return type(self)(**args)
