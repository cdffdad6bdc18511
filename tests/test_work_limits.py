"""Work limits live in one place: ``errors.WORK_LIMITS`` holds every ceiling,
and ``errors.check_limit`` is the one site that raises WorkLimitExceeded."""

import ast
from pathlib import Path

import pytest

from pseudocurve.errors import WORK_LIMITS, DomainError, WorkLimitExceeded, check_limit

SRC = Path(__file__).resolve().parents[1] / "src" / "pseudocurve"


def limit_breaches(src: Path = SRC, limits=WORK_LIMITS) -> list:
    """``file:line`` of each reference to WorkLimitExceeded outside
    ``errors.check_limit`` and of each call of ``check_limit`` whose first
    argument is not a literal key of ``limits``; then each key of ``limits``
    that no call passes."""
    found, passed = [], set()
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        check = set()
        if path.name == "errors.py":
            check = {
                id(sub)
                for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "check_limit"
                for sub in ast.walk(node)
            }
        for node in ast.walk(tree):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if name == "WorkLimitExceeded" and id(node) not in check:
                found.append((path.name, node.lineno, "WorkLimitExceeded"))
            if not isinstance(node, ast.Call):
                continue
            func = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
            if func != "check_limit":
                continue
            key = node.args[0] if node.args else None
            if isinstance(key, ast.Constant) and key.value in limits:
                passed.add(key.value)
            else:
                shown = ast.unparse(key) if key is not None else ""
                found.append((path.name, node.lineno, f"check_limit({shown})"))
    return [f"{file}:{line} {what}" for file, line, what in sorted(found)] + [
        f"unchecked {name!r}" for name in limits if name not in passed
    ]


def test_every_limit_is_raised_by_the_one_check():
    assert (SRC / "errors.py").is_file()  # the scan reads the package itself
    assert limit_breaches() == []


def test_the_limit_scan_finds_every_kind_of_breach(tmp_path):
    (tmp_path / "errors.py").write_text(
        "class WorkLimitExceeded(ValueError):\n    pass\n"
        "def check_limit(name, size):\n    raise WorkLimitExceeded(name)\n"
        "def other():\n    raise WorkLimitExceeded('x')\n"
    )
    (tmp_path / "a.py").write_text(
        "import errors\n"
        "from errors import WorkLimitExceeded, check_limit\n"
        "check_limit('grid', 3)\n"
        "errors.check_limit('nope', 3)\n"
        "name = 'grid'\n"
        "check_limit(name, 3)\n"
        "raise errors.WorkLimitExceeded\n"
    )
    assert limit_breaches(tmp_path, {"grid": (1, ""), "length": (1, "")}) == [
        "a.py:4 check_limit('nope')",
        "a.py:6 check_limit(name)",
        "a.py:7 WorkLimitExceeded",
        "errors.py:6 WorkLimitExceeded",
        "unchecked 'length'",
    ]


def test_the_check_refuses_only_above_the_bound():
    bound, _ = WORK_LIMITS["grid"]
    check_limit("grid", bound)
    with pytest.raises(WorkLimitExceeded, match=f"^grid must be <= {bound}$") as exc:
        check_limit("grid", bound + 1)
    # a refusal is a ValueError, as every limit's was, and no DomainError
    assert isinstance(exc.value, ValueError) and not isinstance(exc.value, DomainError)
