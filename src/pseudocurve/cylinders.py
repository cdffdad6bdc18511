"""Numerical lab for node gluing geometry and cylinder decay estimates.

Maps on a conformal cylinder ``Z(a,b) = S^1 x [a,b]`` are represented by
finitely many Laurent modes ``u(t, theta) = sum_m e^{m(-t + i theta)} v_m``
with vector coefficients; such maps are holomorphic for the standard
structure, and every energy, norm and three-band ratio below has a closed
form.  The gluing side covers the hyperbola family ``z+ * z- = lambda``:
its induced metric density, the coordinate maps between the annulus and the
flat cylinder ``Z(-1,1)``, and the constant-volume-form identity those maps
are designed to satisfy.

The annulus of the node family at parameter lambda has conformal radius
``log(1/|lambda|)`` (tag ``radius_log``).  One rule holds for lambda: every
function of it, the metric density included, refuses |lambda| >= 1 and NaN;
at lambda = 0 the radius and the gluing check refuse, and the volume
identity and the coordinate maps use the limit map R_0 = sqrt(rho).
"""

from __future__ import annotations

import math
import operator
import sys
from typing import Sequence

from pseudocurve.errors import (
    DegenerateMap,
    DomainError,
    SingularPoint,
    _set_field,
    _Value,
)

GAMMA_STAR = 1.0 / math.cosh(2.0)  # best three-band constant, mode 1
GAMMA_2 = 1.0 / math.cosh(4.0)  # best three-band constant, modes |m| >= 2

# Formula anchors quoted by the verify certificates and the CLI payloads.
ANCHOR_COSH = "single-mode three-band ratio = 1/cosh(2m)"
ANCHOR_VOLUME = "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"
ANCHOR_GLUING = "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"
ANCHOR_DECAY = "e_k <= C(e^{-2k} E_head + e^{-2(l-k)} E_tail), high modes <= 1/cosh 4"

# Floating-point bound of the volume identity (the gluing one is gluing_tolerance);
# node and verify read both, and a residual at the bound passes.
VOLUME_TOLERANCE = 1e-10  # volume_identity_residual

_MAX_GRID, _MAX_LENGTH = 10**5, 10**4  # work ceilings: grid + 1 points, l band energies


class Cylinder(_Value):
    """Flat cylinder S^1 x [a, b]."""

    __slots__ = ("a", "b")

    def __init__(self, a: float, b: float) -> None:
        if not b > a:
            raise DomainError("cylinder needs b > a")
        _set_field(self, "a", a)
        _set_field(self, "b", b)


class CylinderMap(_Value):
    """Finite Laurent-mode map on a cylinder.

    modes: sequence of (m, coefficient vector in C^n); m integer, vectors
    all of one length.
    """

    __slots__ = ("modes", "domain")

    def __init__(
        self, modes: Sequence[tuple[int, Sequence[complex]]], domain: Cylinder
    ) -> None:
        seen = set()
        norm = []
        dim = None
        for m, vec in modes:
            try:
                m = operator.index(m)
            except TypeError:
                raise ValueError(f"mode number must be an integer, got {m!r}") from None
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
        _set_field(self, "modes", tuple(norm))
        _set_field(self, "domain", domain)

    def mode_numbers(self) -> list[int]:
        return [m for m, _ in self.modes]

    def restrict_modes(self, keep) -> "CylinderMap":
        kept = tuple((m, v) for m, v in self.modes if keep(m))
        return CylinderMap(kept, self.domain)


class DecayReport(_Value):
    __slots__ = ("band_energies", "constants", "passed")

    def __init__(
        self, band_energies: tuple[float, ...], constants: dict, passed: bool
    ) -> None:
        _set_field(self, "band_energies", band_energies)
        _set_field(self, "constants", constants)
        _set_field(self, "passed", passed)


# ---------------------------------------------------------------------------
# conformal radius and the hyperbola metric
# ---------------------------------------------------------------------------

def _modulus(lam: complex) -> float:
    """|lambda|, refusing |lambda| >= 1 and NaN: the lab's one lambda rule."""
    m = abs(lam)
    if not m < 1:
        raise DomainError("need |lambda| < 1")
    return m


def node_conformal_radius(lam: complex) -> float:
    """radius_log of the annulus z+ z- = lambda: log(1/|lambda|)."""
    r = _modulus(lam)
    if r == 0:
        raise DomainError("radius_log needs lambda != 0")
    return math.log(1.0 / r)


def hyperbola_metric_density(z_plus: complex, lam: complex) -> float:
    """Density 1 + |lambda|^2 / |z+|^4 of the induced metric against the flat
    z+ chart."""
    m = _modulus(lam)
    r = abs(z_plus)
    if r == 0:
        raise SingularPoint("density is singular at z+ = 0")
    if r > 1e64:  # |lambda|^2 / r^4 < 1e-256 vanishes against 1
        return 1.0
    r4 = r**4
    if r4 >= sys.float_info.min:
        return 1.0 + (m**2) / r4
    q = m / r / r  # r^4 underflows: divide by r twice instead
    density = 1.0 + q * q
    if not math.isfinite(density):
        raise DomainError(f"density at |z+| = {r!r} overflows a double")
    return density


# ---------------------------------------------------------------------------
# gluing coordinates between the annulus and Z(-1, 1)
# ---------------------------------------------------------------------------

def rho_of_r(r: float, lam: complex) -> float:
    """rho = (r^2 - |lambda|^2 / r^2) / (1 - |lambda|^2), mapping
    [|lambda|, 1] onto [-1, 1]."""
    m = _modulus(lam)
    if m == 0 and (r <= 0 or r * r == 0):  # r^2 = 0 would make 0 / r^2 below
        raise DomainError("need r > 0 when lambda = 0")
    if not (m * (1 - 1e-15) <= r <= 1 + 1e-15):
        raise DomainError(f"r = {r} outside [{m}, 1]")
    if r * r == 0:  # and so m^2 = 0: m^2 / r^2 below would be 0 / 0
        raise DomainError(f"r = {r!r} is too small: r^2 underflows a double")
    return (r * r - (m * m) / (r * r)) / (1.0 - m * m)


def _r_squared(rho: float, lam: complex) -> tuple[float, float, float]:
    """``(c, disc, u)`` with c = 1 - m^2, disc = sqrt(rho^2 c^2 + 4 m^2) and
    u = R(rho)^2 = (rho c + disc) / 2, for m = |lambda| < 1 and |rho| <= 1.
    At lambda = 0 it is (1, rho, rho), the limit map R_0 = sqrt(rho) on (0, 1].

    For rho < 0, rho c + disc cancels; there u is computed as the equal
    2 m^2 / (disc - rho c), since (disc + rho c)(disc - rho c) = 4 m^2.
    """
    m = _modulus(lam)
    if not (-1 - 1e-15 <= rho <= 1 + 1e-15):
        raise DomainError(f"rho = {rho} outside [-1, 1]")
    if m == 0:
        if rho <= 0:
            raise DomainError("the limit map needs rho > 0")
        return 1.0, rho, rho
    m2 = m * m
    if m2 < sys.float_info.min:  # R(-1)^2 = m^2 is subnormal or 0
        raise DomainError(
            f"|lambda| = {m!r} is too small for the gluing coordinates "
            f"in double precision: |lambda|^2 underflows"
        )
    c = 1.0 - m2
    disc = math.sqrt(rho * rho * c * c + 4.0 * m2)
    u = (rho * c + disc) / 2.0 if rho >= 0 else 2.0 * m2 / (disc - rho * c)
    return c, disc, u


def r_of_rho(rho: float, lam: complex) -> float:
    """Inverse of :func:`rho_of_r`; at lambda = 0 it is the limit map
    R_0 = sqrt(rho) on (0, 1]."""
    return math.sqrt(_r_squared(rho, lam)[2])


def r_of_rho_derivative(rho: float, lam: complex) -> float:
    """dR/drho, analytically (no differencing)."""
    c, disc, u = _r_squared(rho, lam)
    m = abs(lam)
    # 1 + rho c / disc, without the cancellation for rho < 0 (see _r_squared)
    ratio = 1.0 + rho * c / disc if rho >= 0 else 4.0 * m * m / (disc * (disc - rho * c))
    du = 0.5 * c * ratio
    return du / (2.0 * math.sqrt(u))


def volume_identity_residual(lam: complex, grid: int) -> float:
    """Max pointwise residual of the constant-volume-form identity.

    The pullback along (rho, theta) -> R(rho) e^{i theta} of the hyperbola
    area form (1 + |lambda|^2/r^4) r dr d(theta) equals
    ((1 - |lambda|^2)/2) d(rho) d(theta) identically; the residual measures
    only floating-point error of the closed forms on a grid x grid mesh of
    Z(-1, 1).  lambda = 0 checks the degenerate-limit identity with
    R_0 = sqrt(rho) on (0, 1].
    """
    m = _modulus(lam)
    if grid < 2:
        raise ValueError("grid must be >= 2")
    if grid > _MAX_GRID:
        raise DomainError(f"grid must be <= {_MAX_GRID}")
    constant = (1.0 - m * m) / 2.0
    lo = 1.0 / grid if m == 0 else -1.0
    worst = 0.0
    for i in range(grid + 1):
        rho = lo + (1.0 - lo) * i / grid
        r = r_of_rho(rho, lam)
        dr = r_of_rho_derivative(rho, lam)
        density = hyperbola_metric_density(r, lam)
        residual = abs(density * r * dr - constant)
        if residual > worst:
            worst = residual
    # the integrand is theta-independent; the theta grid adds nothing
    return worst


def gluing_tolerance(lam: complex) -> float:
    """Bound 8 eps (1 + m^2)/(1 - m^2) of :func:`gluing_inverse_residual`, m = |lambda|.
    On [m, 1], r drho/dr = 2 (r^2 + m^2/r^2)/(1 - m^2) <= 2 (1 + m^2)/(1 - m^2), so one
    relative rounding of R moves rho(R(x)) by at most that many eps; the rounding of
    rho itself adds about as much, and the factor 8 leaves about 4x headroom."""
    m = _modulus(lam)
    return 8 * sys.float_info.epsilon * (1 + m * m) / (1 - m * m)


def gluing_inverse_residual(lam: complex, grid: int) -> float:
    """Max |rho(R(x)) - x| over the grid + 1 equally spaced points x of
    [-1, 1].  The two closed forms are exact inverses, so the residual
    measures only floating-point error.  Refuses lambda = 0 (R_0(-1) is undefined).
    """
    if grid < 1:
        raise ValueError("grid must be >= 1")
    if grid > _MAX_GRID:
        raise DomainError(f"grid must be <= {_MAX_GRID}")
    if lam == 0:
        raise DomainError("gluing check needs lambda != 0")
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
    try:
        return (math.exp(-2.0 * m * a) - math.exp(-2.0 * m * b)) / (2.0 * m)
    except OverflowError:
        raise DomainError(f"mode {m} overflows a double on Z({a}, {b})") from None


def _band_sum(u: CylinderMap, k: float, term) -> float:
    """Sum of ``term(m, norm_sq)`` over the modes (m, v_m) of u on the band
    Z_k = Z(k, k+1); ``norm_sq()`` is |v_m|^2, read only by a term that needs it.

    The band rule of every band norm: k < k + 1 in doubles, Z_k lies in the
    domain of u up to 1e-12 at either end, and each |v_m|^2 read and the
    total are finite doubles, else DomainError.
    """
    if not (u.domain.a <= k + 1e-12 and k < k + 1 <= u.domain.b + 1e-12):
        raise DomainError(f"band Z({k}, {k+1}) outside the map domain")
    total = 0.0
    for m, vec in u.modes:
        def norm_sq(vec=vec) -> float:
            try:
                return sum(abs(c) ** 2 for c in vec)
            except OverflowError:
                raise DomainError("a mode coefficient squared overflows a double") from None

        total += term(m, norm_sq)
    if not math.isfinite(total):
        raise DomainError(f"the energy on the band Z({k}, {k + 1}) overflows a double")
    return total


def band_energy(u: CylinderMap, k: float) -> float:
    """||du||^2 over the band Z_k = Z(k, k+1), in closed form.

    Modes are L^2-orthogonal on every band, so the energy is
    sum_m 4 pi m^2 |v_m|^2 * integral_k^{k+1} e^{-2mt} dt.
    """
    def term(m: int, norm_sq) -> float:
        if not m:
            return 0.0
        # the integral refuses a mode beyond a double before 4 pi m converts it
        v2, integral = norm_sq(), _mode_integral(m, k, k + 1)
        return 4.0 * math.pi * m * m * v2 * integral

    return _band_sum(u, k, term)


def l12_norm_sq(u: CylinderMap, k: float) -> float:
    """Sobolev norm ||u||^2 + ||du||^2 on the band Z_k, closed form: mode m
    gives 2 pi |v_m|^2 (1 + 2 m^2) integral_k^{k+1} e^{-2mt} dt."""
    def term(m: int, norm_sq) -> float:
        integral = _mode_integral(m, k, k + 1) if m else 1.0  # not (k+1)-k: rounds
        return norm_sq() * integral * 2.0 * math.pi * (1.0 + 2.0 * m * m)

    return _band_sum(u, k, term)


def three_band_ratio(u: CylinderMap, k: float) -> float:
    """2*e_k / (e_{k-1} + e_{k+1}); equals 1/cosh(2m) for a single mode m."""
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
    if l > _MAX_LENGTH:
        raise DomainError(f"need l <= {_MAX_LENGTH}")
    energies = tuple(band_energy(u, k) for k in range(l))
    constants: dict = {"shape": _decay_fit(energies, 2.0, 0, l)}
    passed = math.isfinite(constants["shape"])
    if all(abs(m) >= 2 for m in u.mode_numbers()):
        constants["sharp_rate4"] = _decay_fit(energies, 4.0, 1, l - 2)
        passed = passed and constants["sharp_rate4"] <= 1.0 + 1e-12
    return DecayReport(energies, constants, passed)


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

