"""What importing the package and running one CLI call loads, and the lazy
re-exports of the package namespace.

A CLI call should import only the modules its subcommand runs, and never
``dataclasses`` or ``inspect``, which cost several milliseconds to import.
Each footprint case runs in a fresh interpreter and reads ``sys.modules``.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import pseudocurve

ROOT = Path(__file__).resolve().parents[1]

# Runs cli.main(sys.argv[1:]) and prints the modules it added, then all of
# the modules loaded.
FOOTPRINT = """\
import contextlib, io, json, sys
import pseudocurve.cli as cli
before = set(sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    cli.main(sys.argv[1:])
print(json.dumps([sorted(set(sys.modules) - before), sorted(sys.modules)]))
"""

SLOW_STDLIB = {"dataclasses", "inspect"}


def _python(*args: str) -> str:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    return result.stdout


def _ours(names) -> set:
    return {name for name in names if name.split(".")[0] == "pseudocurve"}


@pytest.mark.parametrize(
    "module,loaded",
    [
        ("pseudocurve", {"pseudocurve"}),
        ("pseudocurve.cli", {"pseudocurve", "pseudocurve.cli", "pseudocurve.errors"}),
    ],
)
def test_importing_loads_no_computational_module(module, loaded):
    probe = f"import json, sys, {module}; print(json.dumps(list(sys.modules)))"
    modules = json.loads(_python("-c", probe))
    assert _ours(modules) == loaded
    assert not SLOW_STDLIB & set(modules)


@pytest.mark.parametrize(
    "argv,added",
    [
        (["cusp", "--type", "2,3"], {"cusps"}),
        (["index", "--mu", "18", "--genus", "10", "--h1", "2"], {"indices"}),
        (["feasibility", "--cp2-degree", "6", "--json"], {"indices"}),
        (["node", "--lambda", "0.1", "--check", "gluing"], {"cylinders"}),
        (["decay", "--modes", "1:1,0;2:0,1"], {"cylinders"}),
        (["saddle", "--k", "3", "--l", "1", "--poly", "2,-1,0"], {"residues", "gaussian"}),
        (
            ["branch", "--type", "2,3", "--other-type", "3,4"],
            {"branches", "cusps", "gaussian"},
        ),
        (
            ["verify", "--suite", "cosh"],
            {"branches", "cusps", "cylinders", "gaussian", "indices", "residues", "verify"},
        ),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_each_subcommand_imports_only_what_it_runs(argv, added):
    new, modules = json.loads(_python("-c", FOOTPRINT, *argv))
    assert _ours(new) == {f"pseudocurve.{name}" for name in added}
    assert not SLOW_STDLIB & set(modules)


def test_exported_names_are_the_objects_of_their_home_modules():
    for name in pseudocurve.__all__:
        namespace = {}
        exec(f"from pseudocurve import {name}", namespace)
        value = namespace[name]
        if name == "__version__":
            assert value == "0.1.0"
            continue
        assert value.__module__ != "pseudocurve"
        assert value is getattr(importlib.import_module(value.__module__), name)
        assert value is getattr(pseudocurve, name)


def test_star_import_and_dir_list_every_exported_name():
    namespace = {}
    exec("from pseudocurve import *", namespace)
    assert set(pseudocurve.__all__) <= set(namespace)
    assert set(pseudocurve.__all__) <= set(dir(pseudocurve))


def test_unknown_package_attribute_raises():
    with pytest.raises(AttributeError, match="no_such_name"):
        pseudocurve.no_such_name
    with pytest.raises(ImportError):
        exec("from pseudocurve import no_such_name", {})
