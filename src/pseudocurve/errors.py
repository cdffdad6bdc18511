"""Exception hierarchy shared by all modules, and the base of the value types."""

from operator import attrgetter, index

_set_field = object.__setattr__


def _integer(value, what: str, error: type) -> int:
    """The one integer rule: the int that ``__index__`` reads from ``value``; a
    bool, or a value that ``__index__`` cannot read, raises ``error``."""
    if type(value) is not bool:
        try:
            return index(value)
        except TypeError:
            pass
    raise error(f"{what} must be an integer, got {value!r}")


class _Value:
    """Shared constructor and methods of the package's value types.

    A subclass lists its fields, in constructor order, in ``__slots__``.  The
    shared constructor binds positional, then keyword arguments to them and
    raises TypeError on a missing, extra, unknown or repeated field; a
    validating subclass ends its own ``__init__`` with ``super().__init__``.
    Integer arguments are read by :func:`_integer`, which refuses bools.
    Fields cannot be assigned or deleted afterwards.  Two instances of one
    class are equal iff their field tuples are, and the hash is the hash of
    the field tuple; an instance of another class is never equal.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:  # attrgetter of one name returns the bare value
            cls._values = staticmethod(lambda obj: (get(obj),))
        else:
            cls._values = get

    def __init__(self, *args, **kwargs) -> None:
        names = self.__slots__
        if len(args) > len(names):
            raise TypeError(f"{type(self).__qualname__} takes {len(names)} fields")
        for name, value in zip(names, args):
            _set_field(self, name, value)
        for name in names[len(args):]:
            if name not in kwargs:
                raise TypeError(f"{type(self).__qualname__} is missing field {name!r}")
            _set_field(self, name, kwargs.pop(name))
        if kwargs:  # the names left are unknown or were given by position too
            raise TypeError(f"{type(self).__qualname__} got extra fields {list(kwargs)}")

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


class WorkLimitExceeded(PseudocurveError, ValueError):
    """An input needs more work than its row of ``WORK_LIMITS`` allows."""


WORK_LIMITS = {  # name -> (bound, refusal text formatted by check_limit)
    "admissible exponents": (10**5, "at most {bound} admissible exponents, got {size}"),
    "jet P2 length": (10**5, "P2 must hold at most {bound} coefficients, got {size}"),
    "ring multiplicity": (500, "the ring branch needs multiplicity <= {bound}, got {size}"),
    "precision": (128, "the local norm vanishes to order {order}, the working precision"),
    "saddle k": (64, "cusp order k must be <= {bound}"),
    "all-splittings degree": (1000, "all splittings need degree <= {bound}"),
    "grid": (10**5, "grid must be <= {bound}"),
    "cylinder length": (10**4, "need l <= {bound}"),
}


def check_limit(name: str, size: int, **fields) -> None:
    """The one work-limit check: WorkLimitExceeded if ``size`` exceeds row ``name``."""
    bound, text = WORK_LIMITS[name]
    if size > bound:
        raise WorkLimitExceeded(text.format(bound=bound, size=size, **fields))
