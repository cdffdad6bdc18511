"""Numerical lab for node gluing geometry and cylinder decay estimates.

Maps on a conformal cylinder ``Z(a,b) = S^1 x [a,b]`` are represented by
finitely many Laurent modes ``u(t, theta) = sum_m e^{m(-t + i theta)} v_m``
with vector coefficients; such maps are holomorphic for the standard
structure, and every energy, norm and three-band ratio below has a closed
form.  The gluing side covers the hyperbola family ``z+ * z- = lambda``:
its induced metric density, the coordinate maps between the annulus and the
flat cylinder ``Z(-1,1)``, and the constant-volume-form identity those maps
are designed to satisfy.

Two conformal radius conventions coexist and are never mixed: a cylinder
``Z(a,b)`` has radius ``e^(b-a)`` (tag ``radius_exp``), while the annulus of
the node family at parameter lambda is measured by ``log(1/|lambda|)``
(tag ``radius_log``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from pseudocurve.errors import DegenerateMap, DomainError, SingularPoint

GAMMA_STAR = 1.0 / math.cosh(2.0)  # best three-band constant, mode 1
GAMMA_2 = 1.0 / math.cosh(4.0)  # best three-band constant, modes |m| >= 2


@dataclass(frozen=True)
class NodeParameter:
    """Gluing parameter of the node family; 0 < |lambda| < eps or lambda = 0."""

    lam: complex
    eps: float = 0.1

    def __post_init__(self) -> None:
        if abs(self.lam) >= 1.0:
            raise DomainError("|lambda| must be < 1")
        if self.lam != 0 and abs(self.lam) >= self.eps:
            raise DomainError(f"need |lambda| < eps = {self.eps} (or lambda = 0)")


@dataclass(frozen=True)
class Cylinder:
    """Flat cylinder S^1 x [a, b]."""

    a: float
    b: float

    def __post_init__(self) -> None:
        if not self.b > self.a:
            raise DomainError("cylinder needs b > a")

    def contains(self, other: "Cylinder") -> bool:
        return self.a <= other.a + 1e-12 and other.b <= self.b + 1e-12


@dataclass(frozen=True)
class CylinderMap:
    """Finite Laurent-mode map on a cylinder.

    modes: sequence of (m, coefficient vector in C^n); m integer, vectors
    all of one length.
    """

    modes: tuple[tuple[int, tuple[complex, ...]], ...]
    domain: Cylinder

    def __post_init__(self) -> None:
        seen = set()
        norm = []
        dim = None
        for m, vec in self.modes:
            m = int(m)
            vec = tuple(complex(c) for c in vec)
            if m in seen:
                raise ValueError(f"duplicate mode {m}")
            if dim is None:
                dim = len(vec)
            elif len(vec) != dim:
                raise ValueError("all mode vectors must have the same length")
            seen.add(m)
            norm.append((m, vec))
        norm.sort(key=lambda pair: pair[0])
        object.__setattr__(self, "modes", tuple(norm))

    def mode_numbers(self) -> list[int]:
        return [m for m, _ in self.modes]

    def restrict_modes(self, keep) -> "CylinderMap":
        kept = tuple((m, v) for m, v in self.modes if keep(m))
        return CylinderMap(kept, self.domain)


@dataclass(frozen=True)
class DecayReport:
    band_energies: tuple[float, ...]
    gamma_star: float
    constants: dict
    passed: bool


@dataclass(frozen=True)
class SupersolutionReport:
    a_plus: tuple[float, ...]  # index k = 1 .. l-1
    a_minus: tuple[float, ...]
    gamma: tuple[float, ...]
    holds_from: int | None  # smallest k0 >= 2 with the inequality on [k0, l-k0]
    failures: tuple[int, ...]


# ---------------------------------------------------------------------------
# conformal radii and the hyperbola metric
# ---------------------------------------------------------------------------

def conformal_radius(c: Cylinder) -> float:
    """radius_exp convention: e^(b-a) > 1."""
    return math.exp(c.b - c.a)


def node_conformal_radius(lam: complex) -> float:
    """radius_log convention for the annulus z+ z- = lambda: log(1/|lambda|)."""
    r = abs(lam)
    if r == 0 or r >= 1:
        raise DomainError("need 0 < |lambda| < 1")
    return math.log(1.0 / r)


def hyperbola_metric_density(z_plus: complex, lam: complex) -> float:
    """Density 1 + |lambda|^2 / |z+|^4 of the induced metric against the flat
    z+ chart."""
    r = abs(z_plus)
    if r == 0:
        raise SingularPoint("density is singular at z+ = 0")
    return 1.0 + (abs(lam) ** 2) / r**4


# ---------------------------------------------------------------------------
# gluing coordinates between the annulus and Z(-1, 1)
# ---------------------------------------------------------------------------

def rho_of_r(r: float, lam: complex) -> float:
    """rho = (r^2 - |lambda|^2 / r^2) / (1 - |lambda|^2), mapping
    [|lambda|, 1] onto [-1, 1]."""
    m = abs(lam)
    if m >= 1:
        raise DomainError("need |lambda| < 1")
    if r <= 0 and m == 0:
        raise DomainError("need r > 0 when lambda = 0")
    if not (m - 1e-15 <= r <= 1 + 1e-15):
        raise DomainError(f"r = {r} outside [{m}, 1]")
    if m == 0:
        return r * r
    return (r * r - (m * m) / (r * r)) / (1.0 - m * m)


def r_of_rho(rho: float, lam: complex) -> float:
    """Inverse of :func:`rho_of_r`; at lambda = 0 it degenerates to
    sqrt(rho) on (0, 1]."""
    m = abs(lam)
    if m >= 1:
        raise DomainError("need |lambda| < 1")
    if not (-1 - 1e-15 <= rho <= 1 + 1e-15):
        raise DomainError(f"rho = {rho} outside [-1, 1]")
    if m == 0:
        if rho <= 0:
            raise DomainError("the limit map needs rho > 0")
        return math.sqrt(rho)
    c = 1.0 - m * m
    disc = math.sqrt(rho * rho * c * c + 4.0 * m * m)
    return math.sqrt((rho * c + disc) / 2.0)


def r_of_rho_derivative(rho: float, lam: complex) -> float:
    """dR/drho, analytically (no differencing)."""
    m = abs(lam)
    if m == 0:
        if rho <= 0:
            raise DomainError("the limit map needs rho > 0")
        return 0.5 / math.sqrt(rho)
    c = 1.0 - m * m
    disc = math.sqrt(rho * rho * c * c + 4.0 * m * m)
    u = (rho * c + disc) / 2.0
    du = 0.5 * c * (1.0 + rho * c / disc)
    return du / (2.0 * math.sqrt(u))


def volume_identity_residual(lam: complex, grid: int = 100) -> float:
    """Max pointwise residual of the constant-volume-form identity.

    The pullback along (rho, theta) -> R(rho) e^{i theta} of the hyperbola
    area form (1 + |lambda|^2/r^4) r dr d(theta) equals
    ((1 - |lambda|^2)/2) d(rho) d(theta) identically; the residual measures
    only floating-point error of the closed forms on a grid x grid mesh of
    Z(-1, 1).  lambda = 0 checks the degenerate-limit identity with
    R_0 = sqrt(rho) on (0, 1].
    """
    if grid < 2:
        raise ValueError("grid must be >= 2")
    m = abs(lam)
    if m >= 1:
        raise DomainError("need |lambda| < 1")
    constant = (1.0 - m * m) / 2.0
    lo = 1.0 / grid if m == 0 else -1.0
    worst = 0.0
    for i in range(grid + 1):
        rho = lo + (1.0 - lo) * i / grid
        r = r_of_rho(rho, lam)
        dr = r_of_rho_derivative(rho, lam)
        density = 1.0 + (m * m) / r**4
        residual = abs(density * r * dr - constant)
        if residual > worst:
            worst = residual
    # the integrand is theta-independent; the theta grid adds nothing
    return worst


def gluing_inverse_residual(lam: complex, grid: int) -> float:
    """Max |rho(R(x)) - x| over the grid + 1 equally spaced points x of
    [-1, 1].  The two closed forms are exact inverses, so the residual
    measures only floating-point error.
    """
    worst = 0.0
    for i in range(grid + 1):
        rho = -1.0 + 2.0 * i / grid
        r = r_of_rho(rho, lam)
        worst = max(worst, abs(rho_of_r(r, lam) - rho))
    return worst


# ---------------------------------------------------------------------------
# band energies and decay
# ---------------------------------------------------------------------------

def _mode_integral(m: int, a: float, b: float) -> float:
    """integral over [a, b] of e^{-2mt} dt, for m != 0."""
    return (math.exp(-2.0 * m * a) - math.exp(-2.0 * m * b)) / (2.0 * m)


def _vec_norm_sq(vec: Sequence[complex]) -> float:
    return sum(abs(c) ** 2 for c in vec)


def _check_domain(u: CylinderMap, a: float, b: float, what: str) -> None:
    if not u.domain.contains(Cylinder(a, b)):
        raise DomainError(f"{what} outside the map domain")


def _energy(u: CylinderMap, a: float, b: float) -> float:
    total = 0.0
    for m, vec in u.modes:
        if m:
            total += 4.0 * math.pi * m * m * _vec_norm_sq(vec) * _mode_integral(m, a, b)
    return total


def band_energy(u: CylinderMap, k: float) -> float:
    """||du||^2 over the band Z_k = Z(k, k+1), in closed form.

    Modes are L^2-orthogonal on every band, so the energy is
    sum_m 4 pi m^2 |v_m|^2 * integral_k^{k+1} e^{-2mt} dt.
    """
    _check_domain(u, k, k + 1, f"band Z({k}, {k+1})")
    return _energy(u, k, k + 1)


def interval_energy(u: CylinderMap, a: float, b: float) -> float:
    """||du||^2 over Z(a, b) (b - a need not be an integer)."""
    _check_domain(u, a, b, "interval")
    return _energy(u, a, b)


def l12_norm_sq(u: CylinderMap, k: float) -> float:
    """Sobolev norm ||u||^2 + ||du||^2 on the band Z_k, closed form: mode m
    gives 2 pi |v_m|^2 (1 + 2 m^2) integral_k^{k+1} e^{-2mt} dt."""
    _check_domain(u, k, k + 1, f"band Z({k}, {k+1})")
    total = 0.0
    for m, vec in u.modes:
        integral = _mode_integral(m, k, k + 1) if m else 1.0  # not (k+1)-k: rounds
        total += _vec_norm_sq(vec) * integral * 2.0 * math.pi * (1.0 + 2.0 * m * m)
    return total


def three_band_ratio(u: CylinderMap, k: float) -> float:
    """2*e_k / (e_{k-1} + e_{k+1}); equals 1/cosh(2m) for a single mode m."""
    if not u.domain.contains(Cylinder(k - 1, k + 2)):
        raise DomainError("needs the three bands Z(k-1, k+2) inside the domain")
    middle = band_energy(u, k)
    outer = band_energy(u, k - 1) + band_energy(u, k + 1)
    if outer == 0.0:
        raise DegenerateMap("outer bands carry no energy")
    return 2.0 * middle / outer


def decay_estimate_check(u: CylinderMap, l: int) -> DecayReport:
    """Fit the two-sided exponential decay bound on Z(0, l).

    Checks ``e_k <= C (e^{-2k} E_head + e^{-2(l-k)} E_tail)`` for
    k = 1..l-2, reporting the smallest admissible C; when the map has no
    modes in {-1, 0, 1} it additionally fits the sharper rate-4 bound
    ``e_k <= C' (e^{-4(k-1)} E_head + e^{-4(l-2-k)} E_tail)`` whose expected
    constant is 1.
    """
    if l < 3:
        raise DomainError("need l >= 3")
    if not u.domain.contains(Cylinder(0.0, float(l))):
        raise DomainError("map must be defined on Z(0, l)")
    energies = tuple(band_energy(u, k) for k in range(l))
    constants: dict = {"shape": _decay_fit(energies, 2.0, 0, l)}
    passed = math.isfinite(constants["shape"])
    if all(abs(m) >= 2 for m in u.mode_numbers()):
        constants["sharp_rate4"] = _decay_fit(energies, 4.0, 1, l - 2)
        passed = passed and constants["sharp_rate4"] <= 1.0 + 1e-12
    if not any(energies[1 : l - 1]):
        passed = True  # no interior energy: the bound holds vacuously
    return DecayReport(energies, GAMMA_STAR, constants, passed)


def _decay_fit(energies: tuple, rate: float, first: int, last: int) -> float:
    """Smallest C with e_k <= C (e^{-rate (k-first)} E_head + e^{-rate (last-k)}
    E_tail) on k = 1..l-2; infinite if a band with energy meets a zero bound."""
    l = len(energies)
    head = energies[0] + energies[1]
    tail = energies[l - 2] + energies[l - 1]
    c = 0.0
    for k in range(1, l - 1):
        if energies[k] == 0.0:
            continue
        bound = (
            math.exp(-rate * (k - first)) * head + math.exp(-rate * (last - k)) * tail
        )
        if bound == 0.0:
            return math.inf
        c = max(c, energies[k] / bound)
    return c


def three_term_truncation(u: CylinderMap, k: float) -> tuple[CylinderMap, float]:
    """Project onto the modes {-1, 0, 1} and return the remainder norm.

    For Laurent maps the L^{1,2}(Z_k)-orthogonal projection onto the span of
    those modes is literally mode truncation; the second component is the
    L^{1,2}(Z_k) norm sqrt(||r||^2 + ||dr||^2) of what is cut away (see
    :func:`l12_norm_sq`).
    """
    low = u.restrict_modes(lambda m: abs(m) <= 1)
    rest = u.restrict_modes(lambda m: abs(m) >= 2)
    return low, math.sqrt(l12_norm_sq(rest, k))


def supersolution_sequences(
    l: int,
    k_star: int | None = None,
    c1: float = 0.0,
    alpha: float = 1.0,
    s: float = 0.5,
) -> SupersolutionReport:
    """The two comparison sequences used to force two-sided decay.

    A+_k = e^{-2k - 1/k} for k <= k*, stitched at k* to
    e^{-2k - 1/k* + 1/(l-k) - 1/(l-k*)}; A- is its mirror.  The report
    checks ``A_k >= (gamma_k / 2)(A_{k-1} + A_{k+1})`` for
    gamma_k = 1/cosh(2) + c1 (e^{-alpha s k} + e^{-alpha s (l-k)}) on
    k = 2..l-2 and records the smallest k0 >= 2 from which the inequality
    holds on all of [k0, l-k0].
    """
    if l < 4:
        raise DomainError("need l >= 4")
    if k_star is None:
        k_star = l // 2  # the unique integer near l/2
    if not (1 <= k_star <= l - 1):
        raise DomainError("need 1 <= k* <= l-1")

    def a_plus(k: int, stitch: int) -> float:
        if k <= stitch:
            return math.exp(-2.0 * k - 1.0 / k)
        return math.exp(-2.0 * k - 1.0 / stitch + 1.0 / (l - k) - 1.0 / (l - stitch))

    ap = [a_plus(k, k_star) for k in range(1, l)]
    am = [a_plus(l - k, l - k_star) for k in range(1, l)]  # the mirror k -> l - k
    gam = [
        GAMMA_STAR
        + c1 * (math.exp(-alpha * s * k) + math.exp(-alpha * s * (l - k)))
        for k in range(1, l)
    ]

    def holds(a: list[float], k: int) -> bool:  # lists are indexed from k = 1
        return a[k - 1] >= gam[k - 1] / 2.0 * (a[k - 2] + a[k])

    failures = tuple(k for k in range(2, l - 1) if not (holds(ap, k) and holds(am, k)))
    # [k0, l-k0] misses a failure f iff k0 > min(f, l - f)
    holds_from = max([2] + [min(f, l - f) + 1 for f in failures])
    if holds_from > l // 2:
        holds_from = None
    return SupersolutionReport(tuple(ap), tuple(am), tuple(gam), holds_from, failures)
