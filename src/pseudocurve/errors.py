"""Exception hierarchy shared by all modules, and the base of the value types."""

from operator import attrgetter

_set_field = object.__setattr__


class _Value:
    """Shared methods of the package's value types.

    A subclass lists its fields, in constructor order, in ``__slots__`` and
    sets them in its own ``__init__`` with ``_set_field`` (that is,
    ``object.__setattr__``).  Fields cannot be assigned or deleted afterwards.  Two instances of one class
    are equal iff their field tuples are, and the hash is the hash of the
    field tuple; an instance of another class is never equal.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter of one name returns the bare value
            cls._values = staticmethod(lambda obj: (get(obj),))
        else:
            cls._values = get

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            values = self._values
            return values(self) == values(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, self._values(self)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class PseudocurveError(Exception):
    """Base class for all domain errors raised by this package."""


class InvalidBranch(PseudocurveError):
    """A branch violates a structural invariant (e.g. empty term list)."""


class NotPreparedBranch(PseudocurveError):
    """An operation requires prepared form (monomial first coordinate)."""


class MultipleOrTruncatedBranch(PseudocurveError):
    """The exponent gcd never reaches 1 within the stored truncation."""


class TruncationTooShort(PseudocurveError):
    """The stored jet is shorter than the operation needs."""


class IndeterminateWithinTruncation(PseudocurveError):
    """Two branches agree up to truncation; the result is not determined."""


class InvalidCuspType(PseudocurveError):
    """An exponent sequence is not a cusp type."""


class GenusFormulaInconsistent(PseudocurveError):
    """The genus identity has no integer solution for the requested unknown."""


class SingularPoint(PseudocurveError):
    """Evaluation requested at the singular point of a chart."""


class DomainError(PseudocurveError):
    """Argument outside the domain of a coordinate map."""


class DegenerateMap(PseudocurveError):
    """A ratio is undefined because the denominator bands carry no energy."""
