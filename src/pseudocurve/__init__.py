"""Exact and numerical invariants of parameterized curve germs.

The package has three exact layers and one numerical one:

* :mod:`pseudocurve.branches` - truncated formal power-series branches over
  Gaussian rationals and their local invariants (multiplicity, cusp order,
  cusp type, jet normal form, intersection multiplicity).
* :mod:`pseudocurve.cusps` - integer combinatorics of cusp types: divisor
  sequences, admissible exponents, nodal numbers, Bennequin indices and
  stratum codimensions.
* :mod:`pseudocurve.residues` - the residue quadratic form of a cusp jet and
  its exact rational inertia, plus the saddle-index calculator.
* :mod:`pseudocurve.indices` - closed-form Fredholm index, dimension, genus
  and feasibility calculators for moduli of curves.
* :mod:`pseudocurve.cylinders` - floating-point laboratory for node gluing
  coordinates, hyperbola metrics, cylinder band energies and exponential
  decay estimates.

Everything in the first four modules is exact (``fractions.Fraction``, and Python
ints in the inertia kernel and the local norm); the cylinder lab is double
precision with closed forms on both sides of every inequality it checks.
"""

__version__ = "0.1.0"

__all__ = [
    "Branch",
    "BranchJetNormalForm",
    "CurveData",
    "CuspType",
    "CylinderMap",
    "GaussianRational",
    "InertiaResult",
    "ResidueForm",
    "__version__",
]

# Home module of each exported name.  Importing the package loads none of
# them: a name is imported on first access (PEP 562), so a CLI call loads
# only the modules its subcommand runs.
_HOMES = {
    "Branch": "branches",
    "BranchJetNormalForm": "branches",
    "CurveData": "indices",
    "CuspType": "cusps",
    "CylinderMap": "cylinders",
    "GaussianRational": "gaussian",
    "InertiaResult": "residues",
    "ResidueForm": "residues",
}


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f"{__name__}.{home}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
