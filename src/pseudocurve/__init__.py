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

Everything in the first four modules is exact (``fractions.Fraction``
arithmetic); the cylinder lab is double precision with closed forms on both
sides of every inequality it checks.
"""

__version__ = "0.1.0"

from pseudocurve.gaussian import GaussianRational
from pseudocurve.branches import Branch, BranchJetNormalForm
from pseudocurve.cusps import CuspType
from pseudocurve.residues import ResidueForm, InertiaResult
from pseudocurve.indices import CurveData
from pseudocurve.cylinders import Cylinder, CylinderMap

__all__ = [
    "Branch",
    "BranchJetNormalForm",
    "CurveData",
    "CuspType",
    "Cylinder",
    "CylinderMap",
    "GaussianRational",
    "InertiaResult",
    "ResidueForm",
    "__version__",
]
