"""Exactness of the Gaussian-rational arithmetic."""

from fractions import Fraction

import pytest

from pseudocurve.gaussian import GaussianRational as GR


def test_construction_normalizes_to_fractions():
    z = GR.of("1/3", 2)
    assert z.re == Fraction(1, 3)
    assert z.im == Fraction(2)


def test_field_operations_are_exact():
    a = GR.of(Fraction(1, 3), Fraction(1, 7))
    b = GR.of(Fraction(-2, 5), Fraction(3))
    assert (a + b) - b == a
    assert (a * b) / b == a
    assert a * a.inverse() == GR.of(1)


def test_conjugate_and_norm():
    z = GR.of(3, -4)
    assert z.norm_sq() == Fraction(25)
    assert z * GR.of(3, 4) == GR.of(25)  # z times its conjugate


def test_powers():
    i = GR.of(0, 1)
    assert i ** 2 == GR.of(-1)
    assert i ** 3 == GR.of(0, -1)
    assert i ** 0 == GR.of(1)
    assert (GR.of(2) ** -2).re == Fraction(1, 4)


def test_mixed_arithmetic_coerces_exact_numbers_only():
    assert 1 - GR.of(3, 2) == GR.of(-2, -2)  # __rsub__
    assert Fraction(1, 2) - GR.of(0, 1) == GR.of(Fraction(1, 2), -1)
    for bad in (lambda: GR.of(1) + 0.5, lambda: 0.5 - GR.of(1)):
        with pytest.raises(TypeError, match="cannot coerce 0.5 to GaussianRational"):
            bad()


def test_zero_inverse_raises():
    with pytest.raises(ZeroDivisionError):
        GR.of(0).inverse()


def test_quad_serialization_roundtrip():
    z = GR.of(Fraction(-7, 12), Fraction(5, 9))
    assert GR.from_quad(z.to_quad()) == z
    assert z.to_quad() == ["-7", "12", "5", "9"]


def test_as_integers_uses_the_least_common_denominator():
    assert GR.of("1/6", "-3/4").as_integers() == (2, -9, 12)
    assert GR.of(5).as_integers() == (5, 0, 1)
    assert GR.of(0, "2/3").as_integers() == (0, 2, 3)


def test_complex_conversion():
    assert complex(GR.of(Fraction(1, 2), Fraction(-3, 4))) == 0.5 - 0.75j


@pytest.mark.parametrize(
    "re,im",
    [
        (0, 0),
        (Fraction(0, 7), Fraction(0, 3)),
        (0, 1),
        (0, Fraction(-2, 9)),
        (-3, 0),
        (Fraction(-5, 7), Fraction(-1, 4)),
        (Fraction(1, 10**40), 0),
        (0, Fraction(-1, 3**60)),
        (Fraction(10**30 + 1, 10**30), Fraction(7, 2**100)),
    ],
)
def test_a_value_is_falsy_exactly_when_zero(re, im):
    assert bool(GR(re, im)) == (re != 0 or im != 0)


def test_truthiness_is_the_one_zero_test():
    assert not hasattr(GR, "is_zero")
