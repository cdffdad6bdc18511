"""Every public top-level function and class of the package has a caller in
the package itself, or is exported through ``__all__``; so has every public
method and property of a package class.  A name that only the tests reach
belongs in the tests."""

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


def _modules(src: Path) -> list:
    """``(module name, parsed tree)`` of each ``src/*.py``."""
    return [
        (path.stem, ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        for path in sorted(src.glob("*.py"))
    ]


def _orphan(stmt, everywhere: Counter) -> bool:
    """True iff nothing outside the definition ``stmt`` reads its name."""
    return everywhere[stmt.name] - _referenced(stmt)[stmt.name] == 0


def unreferenced_public_names(src: Path = SRC) -> list:
    """``module.name`` of each public top-level def or class that no ``Name``
    or ``Attribute`` node in ``src/*.py`` reads outside its own definition."""
    modules = _modules(src)
    everywhere = sum((_referenced(tree) for _, tree in modules), Counter())
    exported = set().union(*(_exported(tree) for _, tree in modules))
    return [
        f"{module}.{stmt.name}"
        for module, tree in modules
        for stmt in tree.body
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not stmt.name.startswith("_")
        and stmt.name not in exported
        and _orphan(stmt, everywhere)
    ]


def unreferenced_public_members(src: Path = SRC) -> list:
    """``module.Class.member`` of each public method or property of a
    top-level class that no ``Name`` or ``Attribute`` node in ``src/*.py``
    reads outside its own definition.  Dunders are not public.  A class with
    a base from outside the package is skipped: its members may override the
    base (``cli._Parser.error``), and the base's own code calls them."""
    modules = _modules(src)
    everywhere = sum((_referenced(tree) for _, tree in modules), Counter())
    classes = [
        (module, stmt)
        for module, tree in modules
        for stmt in tree.body
        if isinstance(stmt, ast.ClassDef)
    ]
    package = {cls.name for _, cls in classes}
    return [
        f"{module}.{cls.name}.{member.name}"
        for module, cls in classes
        if all(isinstance(base, ast.Name) and base.id in package for base in cls.bases)
        for member in cls.body
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not member.name.startswith("_")
        and _orphan(member, everywhere)
    ]


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced_public_names() == []


def test_every_public_member_has_a_reader_in_the_package():
    assert unreferenced_public_members() == []


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


def test_the_member_scan_ignores_dunders_overrides_and_members_read_elsewhere(
    tmp_path,
):
    (tmp_path / "a.py").write_text(
        "import argparse\n\n\n"
        "class Base:\n"
        "    def __eq__(self, other):\n        return self.read() == other\n\n"
        "    def read(self):\n        return 1\n\n"
        "    @property\n    def shown(self):\n        return 2\n\n"
        "    @property\n    def unread(self):\n        return self.unread\n\n"
        "    def _private(self):\n        pass\n\n\n"
        "class Child(Base):\n"
        "    def lonely(self):\n        return self.shown\n\n\n"
        "class Parser(argparse.ArgumentParser):\n"
        "    def error(self, message):\n        raise SystemExit(64)\n"
    )
    assert unreferenced_public_members(tmp_path) == ["a.Base.unread", "a.Child.lonely"]
