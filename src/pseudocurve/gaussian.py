"""Exact Gaussian-rational arithmetic.

A :class:`GaussianRational` is a complex number with ``fractions.Fraction``
real and imaginary parts.  All arithmetic is exact; there is no implicit
conversion to floating point.  Values are immutable and hashable, so they can
be shared freely between threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational

from pseudocurve.errors import InvalidBranch


RationalLike = Rational | int | str

_DECIMAL_INT = re.compile(r"[+-]?[0-9]+")


def json_int(value) -> int:
    """An integer read from JSON: a JSON integer (not a bool) or a string of
    decimal digits with an optional sign.  Anything else, a float included,
    raises InvalidBranch instead of being truncated."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _DECIMAL_INT.fullmatch(value):
        return int(value)
    raise InvalidBranch(f"not an integer: {value!r}")


def _frac(value: RationalLike) -> Fraction:
    return value if isinstance(value, Fraction) else Fraction(value)


@dataclass(frozen=True)
class GaussianRational:
    """A complex number with exact rational real and imaginary parts."""

    re: Fraction = Fraction(0)
    im: Fraction = Fraction(0)

    def __post_init__(self) -> None:
        object.__setattr__(self, "re", _frac(self.re))
        object.__setattr__(self, "im", _frac(self.im))

    @classmethod
    def of(cls, re=0, im=0) -> "GaussianRational":
        """A GaussianRational unchanged, an (re, im) tuple unpacked, else the parts."""
        if isinstance(re, GaussianRational):
            return re
        if isinstance(re, tuple):
            return cls(*re)
        return cls(re, im)

    def __bool__(self) -> bool:
        return self.re != 0 or self.im != 0

    def is_zero(self) -> bool:
        return not self

    def __add__(self, other: "GaussianRational") -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other: "GaussianRational") -> "GaussianRational":
        return self + (-_coerce(other))

    def __rsub__(self, other: "GaussianRational") -> "GaussianRational":
        return _coerce(other) + (-self)

    def __mul__(self, other) -> "GaussianRational":
        other = _coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def norm_sq(self) -> Fraction:
        """|z|^2, an exact rational."""
        return self.re * self.re + self.im * self.im

    def inverse(self) -> "GaussianRational":
        n = self.norm_sq()
        if n == 0:
            raise ZeroDivisionError("inverse of zero Gaussian rational")
        return GaussianRational(self.re / n, -self.im / n)

    def __truediv__(self, other) -> "GaussianRational":
        return self * _coerce(other).inverse()

    def __pow__(self, exponent: int) -> "GaussianRational":
        if exponent < 0:
            return self.inverse() ** (-exponent)
        result = GaussianRational(Fraction(1))
        base = self
        while exponent:
            if exponent & 1:
                result = result * base
            base = base * base
            exponent >>= 1
        return result

    def __complex__(self) -> complex:
        return complex(float(self.re), float(self.im))

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def to_quad(self) -> list[str]:
        """Serialize as [re_num, re_den, im_num, im_den] decimal strings."""
        return [
            str(self.re.numerator),
            str(self.re.denominator),
            str(self.im.numerator),
            str(self.im.denominator),
        ]

    @classmethod
    def from_quad(cls, quad) -> "GaussianRational":
        """Inverse of :meth:`to_quad`, the coefficient encoding of branch JSON.

        A part that is not an integer (see :func:`json_int`) or a zero
        denominator raises :class:`InvalidBranch`.
        """
        rn, rd, im, id_ = (json_int(part) for part in quad)
        if rd == 0 or id_ == 0:
            raise InvalidBranch(f"zero denominator in coefficient {quad!r}")
        return cls(Fraction(rn, rd), Fraction(im, id_))


ZERO = GaussianRational()
ONE = GaussianRational(Fraction(1))


def _coerce(value) -> GaussianRational:
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(Fraction(value))
    raise TypeError(f"cannot coerce {value!r} to GaussianRational")
