"""Exception hierarchy shared by all modules."""


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
