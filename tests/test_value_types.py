"""Value semantics of the package's record types: construction by position
or keyword with defaults, frozen fields, equality and hashing by the field
tuple, and the ``Name(field=value, ...)`` repr."""

import copy
import pickle
from fractions import Fraction

import pytest

from pseudocurve.branches import Branch, BranchJetNormalForm
from pseudocurve.cusps import CuspType
from pseudocurve.cylinders import CylinderMap, DecayReport
from pseudocurve.errors import _Value
from pseudocurve.gaussian import GaussianRational
from pseudocurve.indices import CuspCountBounds, CurveData, ObstructionReport
from pseudocurve.residues import InertiaResult, ResidueForm

GR = GaussianRational

# (class, fields in constructor order, defaults of the omitted trailing fields)
CASES = [
    (GaussianRational, {"re": Fraction(1, 2)}, {"im": Fraction(0)}),
    (
        Branch,
        {"ambient_dim": 2, "terms": ((2, (GR(1), GR(0))), (3, (GR(0), GR(1)))),
         "truncation_order": 5},
        {},
    ),
    (BranchJetNormalForm, {"k": 2, "l": 1, "p1": (GR(1),), "p2": (GR(2),)}, {}),
    (CuspType, {"exponents": (4, 6, 7)}, {}),
    (CylinderMap, {"modes": ((-1, (1j,)), (2, (0.5 + 0j,))), "length": 3}, {}),
    (
        DecayReport,
        {"band_energies": (1.0, 0.5), "constants": (("shape", 1.0),), "passed": True},
        {},
    ),
    (CurveData, {"mu": 3, "self_int": 1, "genera": (0, 1)}, {"delta": 0}),
    (
        ObstructionReport,
        {"obstructed": False, "worst_count": 5, "required": 4, "worst_splitting": ((1, 2),)},
        {},
    ),
    (CuspCountBounds, {"lower": 1, "upper": 3}, {}),
    (ResidueForm, {"k": 3, "l": 1, "coefficients": (GR(2), GR(-1))}, {}),
    (InertiaResult, {"ind_plus": 2, "ind_minus": 2, "nullity": 4}, {}),
]


@pytest.mark.parametrize("cls,given,defaults", CASES, ids=[c[0].__name__ for c in CASES])
def test_value_semantics(cls, given, defaults):
    by_keyword = cls(**given)
    by_position = cls(*given.values())
    fields = {**given, **defaults}
    values = tuple(getattr(by_keyword, name) for name in fields)
    assert values == tuple(fields.values())

    assert by_keyword == by_position and not by_keyword != by_position
    assert by_keyword.__eq__(values) is NotImplemented
    # one equality and hash, the shared ones, for every value type
    assert cls.__eq__ is _Value.__eq__
    assert cls.__hash__ is _Value.__hash__
    assert not {"__setattr__", "__delattr__", "__hash__"} & set(vars(cls))
    other = InertiaResult(0, 0, 0) if cls is not InertiaResult else CuspCountBounds(0, 0)
    assert by_keyword != other and other != by_keyword

    assert hash(by_keyword) == hash(by_position) == hash(values)
    name = next(iter(fields))
    with pytest.raises(AttributeError, match=name):
        setattr(by_keyword, name, fields[name])
    with pytest.raises(AttributeError, match=name):
        delattr(by_keyword, name)
    with pytest.raises(AttributeError):
        by_keyword.not_a_field = 1

    shown = ", ".join(f"{name}={getattr(by_position, name)!r}" for name in fields)
    assert repr(by_position) == f"{cls.__name__}({shown})"
    assert copy.copy(by_position) == by_position
    assert copy.deepcopy(by_position) == by_position
    assert pickle.loads(pickle.dumps(by_position)) == by_position


def test_every_value_type_is_checked():
    import pseudocurve.verify  # noqa: F401  (loads every module)

    assert set(_Value.__subclasses__()) == {cls for cls, _, _ in CASES}
