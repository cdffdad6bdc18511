"""Cylinder lab: closed forms against quadrature, decay and gluing checks."""

import cmath
import decimal
import math
import random
import re
import sys

import numpy as np
import pytest

from pseudocurve import cylinders
from pseudocurve.cylinders import Cylinder, CylinderMap
from pseudocurve.errors import DegenerateMap, DomainError, SingularPoint

DOM = Cylinder(0.0, 10.0)


def single(m, vec=(1.0 + 0j,), domain=DOM):
    return CylinderMap(((m, tuple(vec)),), domain)


# ---------------------------------------------------------------------------
# radius and the hyperbola metric
# ---------------------------------------------------------------------------

def test_conformal_radius_log_convention():
    assert math.isclose(cylinders.node_conformal_radius(0.1), math.log(10.0))
    with pytest.raises(DomainError, match="radius_log needs lambda != 0"):
        cylinders.node_conformal_radius(0.0)


# Every function of lambda refuses |lambda| >= 1 and NaN with the one message.
LAMBDA_FUNCTIONS = {
    "node_conformal_radius": lambda lam: cylinders.node_conformal_radius(lam),
    "hyperbola_metric_density": lambda lam: cylinders.hyperbola_metric_density(0.5, lam),
    "rho_of_r": lambda lam: cylinders.rho_of_r(0.9, lam),
    "r_of_rho": lambda lam: cylinders.r_of_rho(0.5, lam),
    "r_of_rho_derivative": lambda lam: cylinders.r_of_rho_derivative(0.5, lam),
    "volume_identity_residual": lambda lam: cylinders.volume_identity_residual(lam, 1),
    "gluing_inverse_residual": lambda lam: cylinders.gluing_inverse_residual(lam, 10),
    "gluing_tolerance": lambda lam: cylinders.gluing_tolerance(lam),
}


@pytest.mark.parametrize("name", sorted(LAMBDA_FUNCTIONS))
@pytest.mark.parametrize(
    "lam",
    [1.0, -1.0, 1.5, 0.3 + 1j, 1j, math.nan, complex(math.nan, 0.0), complex(0.0, math.nan)],
)
def test_one_lambda_rule(name, lam):
    # the volume residual checks lambda before its grid (grid 1 is refused too)
    with pytest.raises(DomainError, match=re.escape("need |lambda| < 1")):
        LAMBDA_FUNCTIONS[name](lam)


def test_gluing_refuses_lambda_zero():
    with pytest.raises(DomainError, match="gluing check needs lambda != 0"):
        cylinders.gluing_inverse_residual(0.0, 10)


def test_volume_residual_needs_two_grid_steps():
    with pytest.raises(ValueError, match="grid must be >= 2"):
        cylinders.volume_identity_residual(0.0, 1)


def test_hyperbola_metric_density():
    assert cylinders.hyperbola_metric_density(0.3 + 0.4j, 0.0) == 1.0
    # |z|^2 = |lambda|: the neck midpoint doubles the flat density
    lam = 0.09
    z = math.sqrt(0.09) * cmath.exp(0.7j)
    assert math.isclose(cylinders.hyperbola_metric_density(z, lam), 2.0)
    assert math.isclose(cylinders.hyperbola_metric_density(1.0, 0.1), 1.01)
    with pytest.raises(SingularPoint):
        cylinders.hyperbola_metric_density(0.0, 0.1)


# ---------------------------------------------------------------------------
# gluing coordinate maps
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("lam", [0.5, 0.1, 0.01])
def test_r_endpoints(lam):
    assert abs(cylinders.r_of_rho(-1.0, lam) - lam) < 1e-14
    assert abs(cylinders.r_of_rho(0.0, lam) - math.sqrt(lam)) < 1e-14
    assert abs(cylinders.r_of_rho(1.0, lam) - 1.0) < 1e-14


# Small |lambda| used to push R(-1) below |lambda| by cancellation.
@pytest.mark.parametrize("lam", [0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-6, 1e-100])
def test_inverse_pair(lam):
    for i in range(1001):
        rho = -1.0 + 2.0 * i / 1000
        r = cylinders.r_of_rho(rho, lam)
        assert lam - 1e-15 <= r <= 1 + 1e-15
        assert abs(cylinders.rho_of_r(r, lam) - rho) < 1e-12
    assert cylinders.gluing_inverse_residual(lam, 1000) < 1e-12


# rho_of_r's slack below |lambda| is relative: R(-1) lies within about
# 2e-16 |lambda| of |lambda|, so the gluing check reads every grid point.
@pytest.mark.parametrize(
    "lam", [0.5, 0.1, 0.01, 0.3 - 0.1j, 1e-4, 1e-6, 1e-100, 1e-150, 0.9999]
)
def test_gluing_reads_every_grid_point(lam):
    assert abs(cylinders.r_of_rho(-1.0, lam) - abs(lam)) <= 1e-15 * abs(lam)
    assert math.isfinite(cylinders.gluing_inverse_residual(lam, 1000))


GLUING_BOUND_LAMBDAS = [1e-6, 0.01, 0.5, 0.9, 0.999, 0.9999, 0.99999]


@pytest.mark.parametrize("lam", GLUING_BOUND_LAMBDAS)
def test_gluing_residual_is_under_its_bound(lam):
    assert cylinders.gluing_inverse_residual(lam, 1000) <= cylinders.gluing_tolerance(lam)


def test_gluing_tolerance_follows_the_conditioning_of_rho():
    eps = sys.float_info.epsilon
    assert cylinders.gluing_tolerance(0.0) == 8 * eps
    assert cylinders.gluing_tolerance(0.6j) / (8 * eps) == pytest.approx(1.36 / 0.64, rel=1e-15)
    # tighter than the old fixed 1e-12 at the verify lambdas, looser near 1
    for lam in (0.5, 0.1, 0.01):
        assert cylinders.gluing_tolerance(lam) < 1e-14
    assert 1e-12 < cylinders.gluing_tolerance(0.9999) < 2e-11


# R(x) is within 4 ulps of the exact inverse of rho (50 digits), so the
# residual of the pair comes from the conditioning of rho, not from R.
@pytest.mark.parametrize("lam", GLUING_BOUND_LAMBDAS)
def test_r_of_rho_is_within_four_ulps_of_the_exact_inverse(lam):
    with decimal.localcontext() as ctx:
        ctx.prec = 50
        m = decimal.Decimal(abs(lam))
        c = 1 - m * m
        for i in range(1001):
            rho = -1.0 + 2.0 * i / 1000
            x = decimal.Decimal(rho)
            exact = ((x * c + (x * x * c * c + 4 * m * m).sqrt()) / 2).sqrt()
            r = cylinders.r_of_rho(rho, lam)
            assert abs(decimal.Decimal(r) - exact) <= 4 * decimal.Decimal(math.ulp(r)), rho


# An absolute slack of 1e-15 admitted r far below a tiny |lambda| (and r <= 0).
@pytest.mark.parametrize(
    "r,lam,message",
    [
        (1e-17, 9.9e-16, "r = 1e-17 outside [9.9e-16, 1]"),
        (2e-162, 9.9e-16, "r = 2e-162 outside [9.9e-16, 1]"),
        (0.0, 1e-20, "r = 0.0 outside [1e-20, 1]"),
        (-1e-16, 1e-20, "r = -1e-16 outside [1e-20, 1]"),
        (1e-170, 1e-170, "r = 1e-170 is too small: r^2 underflows a double"),
    ],
    ids=["1e-17", "2e-162", "0", "-1e-16", "1e-170"],
)
def test_rho_of_r_refuses_r_far_below_lambda(r, lam, message):
    with pytest.raises(DomainError, match=re.escape(message)):
        cylinders.rho_of_r(r, lam)


@pytest.mark.parametrize("grid", [0, -5])
def test_gluing_residual_rejects_a_grid_below_one(grid):
    # grid 0 divided by zero, and a negative grid gave 0.0 over no point at all
    with pytest.raises(ValueError, match="grid must be >= 1"):
        cylinders.gluing_inverse_residual(0.5, grid)
    assert cylinders.gluing_inverse_residual(0.5, 1) < 1e-12  # rho = -1 and 1


@pytest.mark.parametrize(
    "check", [cylinders.volume_identity_residual, cylinders.gluing_inverse_residual]
)
def test_grid_checks_refuse_a_grid_above_the_ceiling(check):
    # the work is linear in the grid: 10^5 points take a fraction of a second
    assert check(0.1, 10**5) < 1e-10
    for grid in (10**5 + 1, 10**16):
        with pytest.raises(DomainError, match="grid must be <= 100000"):
            check(0.1, grid)


def test_lambda_zero_limit():
    for rho in (0.04, 0.25, 0.81, 1.0):
        assert math.isclose(cylinders.r_of_rho(rho, 0.0), math.sqrt(rho))
        assert math.isclose(cylinders.rho_of_r(math.sqrt(rho), 0.0), rho)
    with pytest.raises(DomainError):
        cylinders.r_of_rho(-0.5, 0.0)
    # the general formula is r^2 - 0 / r^2, so r^2 must not underflow to 0
    assert cylinders.rho_of_r(1e-150, 0.0) == 1e-150 * 1e-150
    for r in (0.0, -1e-16, -0.5, 1e-200):
        with pytest.raises(DomainError, match="need r > 0 when lambda = 0"):
            cylinders.rho_of_r(r, 0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        cylinders.rho_of_r(1.5, 0.1)
    with pytest.raises(DomainError):
        cylinders.r_of_rho(1.5, 0.1)
    with pytest.raises(DomainError):
        cylinders.rho_of_r(0.05, 0.1)  # below |lambda|


def test_derivative_checks_its_arguments_like_r_of_rho():
    for rho, lam, message in ((0.5, 1.5, "need |lambda| < 1"), (3.0, 0.5, "outside")):
        for fn in (cylinders.r_of_rho, cylinders.r_of_rho_derivative):
            with pytest.raises(DomainError, match=re.escape(message)):
                fn(rho, lam)


def test_results_beyond_double_range_raise_domain_error():
    # R(-1)^2 = |lambda|^2 is subnormal at 1e-160 and 0 at 1e-170
    with pytest.raises(DomainError):
        cylinders.volume_identity_residual(1e-160, 10)
    with pytest.raises(DomainError):
        cylinders.gluing_inverse_residual(1e-160, 10)
    with pytest.raises(DomainError):
        cylinders.r_of_rho_derivative(0.0, 1e-170)
    with pytest.raises(DomainError):
        cylinders.hyperbola_metric_density(1e-200, 0.1)
    with pytest.raises(DomainError):
        cylinders.band_energy(single(1, (1e200 + 0j,)), 0.0)
    with pytest.raises(DomainError):
        cylinders.band_energy(single(-1000), 0.0)
    for m in (10**400, -10**400):  # beyond a double, so 4 pi m would not convert
        message = f"mode {m} overflows a double on Z(0.0, 1.0)"
        with pytest.raises(DomainError, match=re.escape(message)):
            cylinders.band_energy(single(m), 0.0)
    with pytest.raises(DomainError):
        cylinders.l12_norm_sq(single(2, (1e154 + 0j,)), 0.0)


def test_derivative_matches_difference_quotient():
    for lam in (0.5, 0.1, 0.01):
        for rho in (-0.9, -0.3, 0.0, 0.4, 0.9):
            h = 1e-6
            numeric = (
                cylinders.r_of_rho(rho + h, lam) - cylinders.r_of_rho(rho - h, lam)
            ) / (2 * h)
            assert math.isclose(
                cylinders.r_of_rho_derivative(rho, lam), numeric, rel_tol=1e-7
            )


def test_limit_map_is_sqrt_exactly():
    # at lambda = 0, R_0 = sqrt(rho) and dR_0/drho = 1/(2 sqrt(rho)), bit for bit
    for i in range(1, 201):
        rho = i / 200
        assert cylinders.r_of_rho(rho, 0) == math.sqrt(rho)
        assert cylinders.r_of_rho_derivative(rho, 0) == 0.5 / math.sqrt(rho)


@pytest.mark.parametrize("lam", [0.5, 0.1, 0.01, 1e-3, 1e-4, 1e-6, 1e-100, 0.0])
def test_volume_identity(lam):
    assert cylinders.volume_identity_residual(lam, grid=100) < 1e-10


def test_volume_constant_against_quadrature():
    # independent check of the constant: midpoint quadrature of the hyperbola
    # area form over |lambda| <= r <= 1 must match the flat-side integral
    # ((1-|lambda|^2)/2) * vol(Z(-1,1)) = 2 pi (1 - |lambda|^2)
    for lam in (0.5, 0.2):
        n = 20000
        total = 0.0
        for i in range(n):
            r = lam + (1.0 - lam) * (i + 0.5) / n
            total += (1.0 + lam * lam / r**4) * r
        area_hyperbola = total * (1.0 - lam) / n * 2.0 * math.pi
        constant = (1.0 - lam * lam) / 2.0
        area_flat = constant * 2.0 * (2.0 * math.pi)
        assert math.isclose(area_hyperbola, area_flat, rel_tol=1e-6)


# ---------------------------------------------------------------------------
# band energies: closed form vs. quadrature oracle
# ---------------------------------------------------------------------------

def quadrature_band_energy(u, k, nt=600, ntheta=64):
    """Independent oracle: midpoint quadrature of |du|^2 over Z_k.

    Midpoint in theta is exact for trigonometric polynomials once ntheta
    exceeds twice the top frequency; the t-integral error is O(nt^-2).
    """
    total = 0.0
    for it in range(nt):
        t = k + (it + 0.5) / nt
        for ith in range(ntheta):
            theta = 2.0 * math.pi * (ith + 0.5) / ntheta
            du_t = [0j] * len(u.modes[0][1])
            du_th = [0j] * len(u.modes[0][1])
            for m, vec in u.modes:
                factor = cmath.exp(m * (-t + 1j * theta))
                for i, c in enumerate(vec):
                    du_t[i] += -m * factor * c
                    du_th[i] += 1j * m * factor * c
            density = sum(abs(v) ** 2 for v in du_t) + sum(
                abs(v) ** 2 for v in du_th
            )
            total += density
    return total * (1.0 / nt) * (2.0 * math.pi / ntheta)


def test_band_energy_single_mode_closed_form():
    u = single(1)
    expected = 2.0 * math.pi * (1.0 - math.exp(-2.0))
    assert math.isclose(cylinders.band_energy(u, 0.0), expected, rel_tol=1e-12)


def test_band_energy_constant_map():
    u = single(0, (2.0 + 1j,))
    assert cylinders.band_energy(u, 3.0) == 0.0


def test_band_energy_matches_quadrature():
    rng = random.Random(42)
    for _ in range(5):
        modes = []
        for m in rng.sample(range(-3, 4), rng.randint(1, 3)):
            modes.append(
                (m, (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),
                     complex(rng.uniform(-1, 1), rng.uniform(-1, 1))))
            )
        u = CylinderMap(tuple(modes), Cylinder(-4.0, 4.0))
        for k in (-2.0, 0.0, 1.0):
            exact = cylinders.band_energy(u, k)
            approx = quadrature_band_energy(u, k)
            assert math.isclose(exact, approx, rel_tol=1e-5, abs_tol=1e-9)


def test_mode_orthogonality_energies_add():
    u1 = single(1, (0.7 + 0.1j,))
    u2 = single(-1, (0.0 + 1.3j,))
    both = CylinderMap(u1.modes + u2.modes, DOM)
    for k in (0.0, 2.0, 5.0):
        assert math.isclose(
            cylinders.band_energy(both, k),
            cylinders.band_energy(u1, k) + cylinders.band_energy(u2, k),
            rel_tol=1e-12,
        )


def test_band_outside_domain():
    with pytest.raises(DomainError):
        cylinders.band_energy(single(1), 9.5)
    # the ratio, the decay fit and the Sobolev norm refuse a band as band_energy does
    short = single(1, domain=Cylinder(0.0, 5.0))
    message = re.escape("band Z(5, 6) outside the map domain")
    with pytest.raises(DomainError, match=message):
        cylinders.decay_estimate_check(short, 6)
    with pytest.raises(DomainError, match=message):
        cylinders.three_band_ratio(short, 5)
    with pytest.raises(DomainError, match=re.escape("band Z(-1, 0) outside")):
        cylinders.three_band_ratio(short, 0)
    with pytest.raises(DomainError, match=re.escape("band Z(5.5, 6.5) outside")):
        cylinders.l12_norm_sq(short, 5.5)
    # the edges: the end bands, and a 1e-12 slack at either end of the domain
    u = single(1)
    for k in (0.0, 9.0, -5e-13, 9.0 + 5e-13):
        assert cylinders.band_energy(u, k) > 0
    for k in (-1e-11, 9.0 + 1e-11):
        message = re.escape(f"band Z({k}, {k + 1}) outside the map domain")
        with pytest.raises(DomainError, match=message):
            cylinders.band_energy(u, k)


def test_band_at_two_to_the_53_is_outside_the_domain():
    # there k + 1 == k, and the band rule names the band as any other
    u = single(1, domain=Cylinder(0.0, 2.0**60))
    message = re.escape("band Z(9007199254740992.0, 9007199254740992.0) outside the map domain")
    with pytest.raises(DomainError, match=message):
        cylinders.band_energy(u, 2.0**53)


def test_band_norms_read_only_the_squares_they_need():
    # the energy has no m = 0 term, so a constant beyond the double range is
    # no fault there; the Sobolev norm reads it and refuses
    u = CylinderMap(((0, (1e200 + 0j,)), (1, (1.0 + 0j,))), DOM)
    assert cylinders.band_energy(u, 0.0) == cylinders.band_energy(single(1), 0.0)
    with pytest.raises(DomainError, match="a mode coefficient squared overflows"):
        cylinders.l12_norm_sq(u, 0.0)


def test_cylinder_needs_b_above_a():
    for a, b in ((1.0, 1.0), (2.0, 1.0)):
        with pytest.raises(DomainError, match="cylinder needs b > a"):
            Cylinder(a, b)


def test_cylinder_map_validation():
    with pytest.raises(ValueError):
        CylinderMap(((1, (1 + 0j,)), (1, (2 + 0j,))), DOM)  # duplicate mode
    with pytest.raises(ValueError):
        CylinderMap(((1, (1 + 0j,)), (2, (1 + 0j, 0j))), DOM)  # mixed lengths
    for bad in (2.7, 2.0, "3", None):
        with pytest.raises(ValueError):
            CylinderMap(((bad, (1 + 0j,)),), DOM)
    u = CylinderMap(((np.int64(2), (1 + 0j,)), (np.int32(-1), (1j,))), DOM)
    assert u.mode_numbers() == [-1, 2]
    assert all(type(m) is int for m in u.mode_numbers())


# ---------------------------------------------------------------------------
# three-band ratios
# ---------------------------------------------------------------------------

def test_single_mode_ratios_hit_cosh_constants():
    for m in (1, 2, 3, -1, -2):
        u = single(m, (0.3 + 0.4j, 1.0 + 0j), domain=Cylinder(0.0, 12.0))
        target = 1.0 / math.cosh(2.0 * abs(m))
        for k in (1.0, 5.0, 9.0):
            assert abs(cylinders.three_band_ratio(u, k) - target) < 1e-12


def test_mixture_ratio_strictly_between():
    u = CylinderMap(((1, (1 + 0j,)), (2, (0.8 + 0j,))), DOM)
    for k in (1.0, 3.0, 6.0):
        ratio = cylinders.three_band_ratio(u, k)
        assert cylinders.GAMMA_2 < ratio < cylinders.GAMMA_STAR


def test_any_mixture_of_modes_plus_minus_one_achieves_gamma_star():
    # both signs decay at the same |m| = 1 rate, so the ratio is exact
    u = CylinderMap(((1, (1 + 0j,)), (-1, (0.3 - 0.7j,))), DOM)
    for k in (1.0, 4.0, 8.0):
        assert abs(cylinders.three_band_ratio(u, k) - cylinders.GAMMA_STAR) < 1e-12


def test_projection_split_recovers_both_constants():
    # the spectral split behind the decay argument: the |m| = 1 part sits
    # exactly at 1/cosh 2, the |m| >= 2 part at or below 1/cosh 4
    u = CylinderMap(
        ((1, (1 + 0j,)), (-1, (0.2j,)), (2, (0.5 + 0j,)), (4, (0.1 + 0.1j,))),
        DOM,
    )
    low = u.restrict_modes(lambda m: abs(m) == 1)
    high = u.restrict_modes(lambda m: abs(m) >= 2)
    for k in (1.0, 3.0, 7.0):
        assert abs(cylinders.three_band_ratio(low, k) - cylinders.GAMMA_STAR) < 1e-12
        assert cylinders.three_band_ratio(high, k) <= cylinders.GAMMA_2 + 1e-12


def test_degenerate_ratio():
    with pytest.raises(DegenerateMap):
        cylinders.three_band_ratio(single(0), 3.0)


# ---------------------------------------------------------------------------
# decay reports
# ---------------------------------------------------------------------------

def test_decay_mode2_beats_rate2_with_c_at_most_one():
    report = cylinders.decay_estimate_check(single(2), 10)
    assert report.passed
    assert report.constants["shape"] <= 1.0
    assert report.constants["sharp_rate4"] <= 1.0 + 1e-12


def test_decay_two_sided_modes():
    u = CylinderMap(((1, (1 + 0j,)), (-1, (0.5 + 0j,))), DOM)
    report = cylinders.decay_estimate_check(u, 10)
    assert report.passed
    assert math.isfinite(report.constants["shape"])
    assert "sharp_rate4" not in report.constants


def test_decay_constant_map_vacuous():
    report = cylinders.decay_estimate_check(single(0), 10)
    assert report.passed
    assert report.constants == {"shape": 0.0}
    assert all(e == 0.0 for e in report.band_energies)


def test_decay_needs_length_three():
    with pytest.raises(DomainError):
        cylinders.decay_estimate_check(single(1, domain=Cylinder(0.0, 2.0)), 2)


def test_decay_refuses_a_length_above_the_ceiling():
    # one band energy per unit of length is computed and reported
    report = cylinders.decay_estimate_check(single(1, domain=Cylinder(0.0, 1e4)), 10**4)
    assert len(report.band_energies) == 10**4
    with pytest.raises(DomainError, match="need l <= 10000"):
        cylinders.decay_estimate_check(single(1, domain=Cylinder(0.0, 1e4 + 1)), 10**4 + 1)


# ---------------------------------------------------------------------------
# three-term truncation
# ---------------------------------------------------------------------------

def test_truncation_of_low_mode_map_is_lossless():
    u = CylinderMap(((-1, (1j,)), (0, (2 + 0j,)), (1, (0.5 + 0j,))), DOM)
    low, remainder = cylinders.three_term_truncation(u, 2.0)
    assert low.modes == u.modes
    assert remainder == 0.0


def test_truncation_of_high_mode_map_is_everything():
    u = single(2, (1 + 0j,))
    low, remainder = cylinders.three_term_truncation(u, 2.0)
    assert low.modes == ()
    assert math.isclose(
        remainder, math.sqrt(cylinders.l12_norm_sq(u, 2.0)), rel_tol=1e-12
    )


def test_truncation_remainder_satisfies_gamma2_inequality():
    rng = random.Random(9)
    for _ in range(20):
        modes = []
        for m in rng.sample(range(-5, 6), rng.randint(2, 4)):
            modes.append((m, (complex(rng.uniform(-1, 1), rng.uniform(-1, 1)),)))
        u = CylinderMap(tuple(modes), DOM)
        rest = u.restrict_modes(lambda m: abs(m) >= 2)
        if not rest.modes:
            continue
        r = [cylinders.l12_norm_sq(rest, float(k)) for k in range(10)]
        for k in range(1, 9):
            # equality is attained by pure |m| = 2 modes, so compare the
            # normalized ratio rather than the raw (possibly huge) norms
            ratio = 2.0 * r[k] / (r[k - 1] + r[k + 1])
            assert ratio <= cylinders.GAMMA_2 + 1e-12


def test_l12_norm_closed_form():
    u = single(1, (1 + 0j,))
    expected = 2.0 * math.pi * 3.0 * (math.exp(-2.0 * 2) - math.exp(-2.0 * 3)) / 2.0
    assert math.isclose(cylinders.l12_norm_sq(u, 2.0), expected, rel_tol=1e-12)


def test_l12_norm_of_the_constant_mode():
    # ||u||^2 = 2 pi |v|^2 on a unit band, and du = 0, at any band position
    u = single(0, (1 + 0j,))
    for k in (0.0, 0.3, 2.0, 8.7):
        assert cylinders.l12_norm_sq(u, k) == 2.0 * math.pi

