"""Every public top-level function and class of the package has a caller in
the package itself, or is exported through ``__all__``.  A name that only the
tests reach belongs in the tests."""

import ast
from collections import Counter
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "pseudocurve"


def _referenced(node) -> Counter:
    """Names read by ``Name`` and ``Attribute`` nodes below ``node``."""
    names = Counter()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names[sub.id] += 1
        elif isinstance(sub, ast.Attribute):
            names[sub.attr] += 1
    return names


def _exported(tree) -> set:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def unreferenced_public_names(src: Path = SRC) -> list:
    """``module.name`` of each public top-level def or class that no ``Name``
    or ``Attribute`` node in ``src/*.py`` reads outside its own definition."""
    everywhere, exported, definitions = Counter(), set(), []
    for path in sorted(src.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        everywhere += _referenced(tree)
        exported |= _exported(tree)
        definitions += [
            (path.stem, stmt)
            for stmt in tree.body
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not stmt.name.startswith("_")
        ]
    return [
        f"{module}.{stmt.name}"
        for module, stmt in definitions
        if stmt.name not in exported
        and everywhere[stmt.name] - _referenced(stmt)[stmt.name] == 0
    ]


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced_public_names() == []


def test_the_scan_ignores_self_reference_private_and_exported_names(tmp_path):
    (tmp_path / "__init__.py").write_text('__all__ = ["Exported"]\n')
    (tmp_path / "a.py").write_text(
        "class Exported:\n    pass\n\n\n"
        "class Lonely:\n    pass\n\n\n"
        "def used():\n    return 1\n\n\n"
        "def recursive(n):\n    return recursive(n - 1) if n else used()\n\n\n"
        "def _private():\n    pass\n"
    )
    assert unreferenced_public_names(tmp_path) == ["a.Lonely", "a.recursive"]
