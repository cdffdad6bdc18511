"""Span tracing by wrapping module attributes of the pseudocurve package.

Every internal call in pseudocurve goes through a module global
(``residues.inertia`` calls ``rational_inertia`` by its global name, the CLI
calls ``branches.intersection_multiplicity`` through the module), so
replacing a module attribute with a wrapper observes every call without
changing the package.  Each wrapped call records a span
``(span_id, parent_id, name, start, end, op_id)``; self time is a span's
duration minus the durations of its direct children.

GaussianRational arithmetic is only counted, never spanned, so that the
tracer adds a bounded cost to the innermost loops.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

# (module, attribute) pairs that get a span per call.
SPANNED = {
    "residues": (
        "residue_form_matrix",
        "rational_inertia",
        "inertia",
        "a0_equivalence_check",
    ),
    "branches": (
        "intersection_multiplicity",
        "intersection_multiplicity_substitution",
        "cusp_type_of_branch",
        "jet_normal_form",
        "branch_from_cusp_type",
    ),
    "cusps": ("nodal_number", "nodal_number_formula", "nodal_number_oracle"),
    "indices": ("cp2_multiple_component_obstruction",),
    "cylinders": (
        "decay_estimate_check",
        "volume_identity_residual",
        "three_band_ratio",
        "band_energy",
        "r_of_rho",
        "rho_of_r",
    ),
}

# GaussianRational methods that are counted (several dunders share a name).
COUNTED_GAUSSIAN = {
    "__mul__": "mul",
    "__rmul__": "mul",
    "__add__": "add",
    "__radd__": "add",
    "inverse": "inverse",
}


def inertia_bucket(matrix) -> str:
    """Size bucket of a rational_inertia call, read from its matrix."""
    n = len(matrix)
    if n <= 14:
        return "n_le_14"
    if n <= 30:
        return "n_15_30"
    return "n_gt_30"


class Tracer:
    """Installs wrappers on the package, records spans, and removes them."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.op_id = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._patches: list[tuple[object, str, object, object]] = []

    # -- recording ---------------------------------------------------------

    def _spanned(self, name: str, fn, bucket=None, refusal=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            full = f"{name}.{bucket(args[0])}" if bucket else name
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1] if tracer._stack else 0
            tracer._stack.append(span_id)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                if refusal is not None and isinstance(exc, refusal):
                    tracer.counts[f"{name}.refused"] += 1
                raise
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append((span_id, parent, full, start, end, tracer.op_id))

        return wrapper

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _counted_generator(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            for item in fn(*args, **kwargs):
                counts[name] += 1
                yield item

        return wrapper

    def _patch(self, owner, attr: str, replacement) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original, replacement))
        setattr(owner, attr, replacement)

    # -- install / remove --------------------------------------------------

    def install(self) -> None:
        from pseudocurve import branches, cusps, cylinders, errors, gaussian, indices
        from pseudocurve import residues, verify

        modules = {
            "residues": residues,
            "branches": branches,
            "cusps": cusps,
            "indices": indices,
            "cylinders": cylinders,
        }
        for layer, attrs in SPANNED.items():
            module = modules[layer]
            for attr in attrs:
                name = f"{layer}.{attr}"
                bucket = inertia_bucket if attr == "rational_inertia" else None
                refusal = (
                    errors.IndeterminateWithinTruncation
                    if attr == "intersection_multiplicity"
                    else None
                )
                self._patch(
                    module, attr, self._spanned(name, getattr(module, attr), bucket, refusal)
                )
        self._patch(
            cusps,
            "enumerate_cusp_types",
            self._counted_generator(
                "cusps.enumerate_cusp_types.items", cusps.enumerate_cusp_types
            ),
        )
        cls = gaussian.GaussianRational
        for attr, short in COUNTED_GAUSSIAN.items():
            name = f"gaussian.GaussianRational.{short}.calls"
            self._patch(cls, attr, self._counted(name, getattr(cls, attr)))
        # run_suite looks suites up in this dict, not in module globals.
        for suite, fn in list(verify.SUITES.items()):
            self._patch_item(verify.SUITES, suite, self._suite(suite, fn))

    def _suite(self, suite: str, fn):
        spanned = self._spanned(f"verify.suite_{suite}", fn)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cert = spanned(*args, **kwargs)
            counts[f"verify.suite_{suite}.cases"] += cert.cases_run
            return cert

        return wrapper

    def _patch_item(self, mapping: dict, key: str, replacement) -> None:
        self._patches.append((mapping, key, mapping[key], replacement))
        mapping[key] = replacement

    def uninstall(self) -> None:
        for owner, attr, original, _ in reversed(self._patches):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    def leftover_wrappers(self) -> list[str]:
        """Names whose current value is still a wrapper; empty after uninstall."""
        left = []
        for owner, attr, original, _ in self._patches:
            current = owner[attr] if isinstance(owner, dict) else getattr(owner, attr)
            if current is not original:
                left.append(f"{getattr(owner, '__name__', 'SUITES')}.{attr}")
        return left

    # -- aggregation -------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = defaultdict(float)
        for _, parent, _, start, end, _ in self.spans:
            if parent:
                child[parent] += end - start
        out: dict[str, float] = defaultdict(float)
        for span_id, _, name, start, end, _ in self.spans:
            out[name] += (end - start) - child[span_id]
        return dict(out)

    def calls(self) -> Counter:
        return Counter(name for _, _, name, _, _, _ in self.spans)
