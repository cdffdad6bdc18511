"""The benchmark's tracer wraps package names given as strings; a rename in
the package must fail here, not only in the benchmark run."""

import importlib
import os
import subprocess
import sys
import types
from pathlib import Path

from pseudocurve import verify
from pseudocurve.gaussian import GaussianRational

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "perfbench" / "tracer.py"


def _tracer_module():
    """perfbench/tracer.py executed from its source text, so that nothing is
    written next to it."""
    module = types.ModuleType("perfbench_tracer")
    module.__file__ = str(TRACER)
    source = TRACER.read_text(encoding="utf-8")
    exec(compile(source, str(TRACER), "exec"), module.__dict__)
    return module


def test_spanned_attributes_resolve():
    tracer = _tracer_module()
    for layer, attrs in tracer.SPANNED.items():
        module = importlib.import_module(f"pseudocurve.{layer}")
        for attr in attrs:
            assert callable(getattr(module, attr, None)), f"{layer}.{attr}"


def test_counted_gaussian_methods_resolve():
    tracer = _tracer_module()
    for attr in tracer.COUNTED_GAUSSIAN:
        assert callable(getattr(GaussianRational, attr, None)), attr


def test_verify_keeps_its_eleven_suites():
    assert len(verify.SUITES) == 11


def test_tracer_installs_and_uninstalls_cleanly():
    tracer = _tracer_module().Tracer()
    try:
        tracer.install()
    finally:
        tracer.uninstall()
    assert tracer.leftover_wrappers() == []


def test_cli_import_does_not_load_numpy():
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    probe = "import sys, pseudocurve.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        check=True,
    )
    assert result.stdout.strip() == "False"
