"""Value semantics of the package's record types: construction by position
or keyword with defaults, frozen fields, equality and hashing by the field
tuple, and the ``Name(field=value, ...)`` repr.  Field stores and the integer
rule each live in one place."""

import ast
import copy
import pickle
import re
from fractions import Fraction
from pathlib import Path

import pytest

from pseudocurve.branches import Branch, BranchJetNormalForm
from pseudocurve.cusps import CuspType
from pseudocurve.cylinders import CylinderMap, DecayReport
from pseudocurve.errors import _Value
from pseudocurve.gaussian import GaussianRational
from pseudocurve.indices import CuspCountBounds, CurveData, ObstructionReport
from pseudocurve.residues import InertiaResult, ResidueForm

GR = GaussianRational
SRC = Path(__file__).resolve().parents[1] / "src" / "pseudocurve"

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

    # binding errors: a validating __init__ raises Python's own TypeError, the
    # shared constructor names the record and the field
    shared, q = "__init__" not in vars(cls), cls.__qualname__
    for args, kwargs, message in (
        ((*fields.values(), None), {}, f"{q} takes {len(fields)} fields"),
        ((), {**given, "not_a_field": None}, f"{q} got extra fields ['not_a_field']"),
        (tuple(given.values()), {name: fields[name]}, f"{q} got extra fields [{name!r}]"),
    ):
        with pytest.raises(TypeError, match=f"^{re.escape(message)}$" if shared else None):
            cls(*args, **kwargs)
    if shared:
        last = list(fields)[-1]
        with pytest.raises(TypeError, match=f"^{q} is missing field '{last}'$"):
            cls(*list(fields.values())[:-1])

def test_every_value_type_is_checked():
    import pseudocurve.verify  # noqa: F401  (loads every module)

    assert set(_Value.__subclasses__()) == {cls for cls, _, _ in CASES}


def rule_breaches(src: Path = SRC) -> list:
    """``file:line name`` of each reference to ``_set_field`` or
    ``object.__setattr__`` outside ``errors.py`` and ``gaussian.py``, and of
    each reference to ``operator.index`` (as an attribute, or as a name
    imported from ``operator``) outside the integer rule ``errors._integer``."""
    found = []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        index_names = {
            alias.asname or alias.name
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module == "operator"
            for alias in node.names
            if alias.name == "index"
        }
        rule = set()
        if path.name == "errors.py":
            rule = {
                id(sub)
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_integer"
                for sub in ast.walk(node)
            }
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, ast.alias):
                name = node.name
            owner = getattr(getattr(node, "value", None), "id", None)
            store = name == "_set_field" or (owner, name) == ("object", "__setattr__")
            if store and path.name not in ("errors.py", "gaussian.py"):
                found.append((path.name, node.lineno, "_set_field"))
            index = (owner, name) == ("operator", "index") or (
                isinstance(node, ast.Name) and node.id in index_names
            )
            if index and id(node) not in rule:
                found.append((path.name, node.lineno, "operator.index"))
    return [f"{file}:{line} {name}" for file, line, name in sorted(found)]


def test_field_stores_and_the_integer_rule_live_in_one_place():
    assert (SRC / "errors.py").is_file()  # the scan reads the package itself
    assert rule_breaches() == []


def test_the_rule_scan_finds_every_kind_of_breach(tmp_path):
    (tmp_path / "errors.py").write_text(
        "from operator import index\n"
        "_set_field = object.__setattr__\n"
        "def _integer(value):\n    return index(value)\n"
        "def other(value):\n    return index(value)\n"
    )
    (tmp_path / "gaussian.py").write_text(
        "from errors import _set_field\n_set_field(1, 'a', 2)\n"
    )
    (tmp_path / "a.py").write_text(
        "import operator\n"
        "from errors import _set_field\n"
        "from operator import index as ix\n"
        "x = tuple(map(operator.index, (1, 2)))\n"
        "y = ix(3)\n"
        "operator.indexOf((1,), 1)\n"
        "object.__setattr__(x, 'a', y)\n"
    )
    assert rule_breaches(tmp_path) == [
        "a.py:2 _set_field",
        "a.py:4 operator.index",
        "a.py:5 operator.index",
        "a.py:7 _set_field",
        "errors.py:6 operator.index",
    ]
