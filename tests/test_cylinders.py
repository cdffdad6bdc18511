"""Cylinder lab: closed forms against quadrature, decay and gluing checks."""

import cmath
import math
import random

import pytest

from pseudocurve import cylinders
from pseudocurve.cylinders import Cylinder, CylinderMap
from pseudocurve.errors import DegenerateMap, DomainError, SingularPoint

DOM = Cylinder(0.0, 10.0)


def single(m, vec=(1.0 + 0j,), domain=DOM):
    return CylinderMap(((m, tuple(vec)),), domain)


# ---------------------------------------------------------------------------
# radii and the hyperbola metric
# ---------------------------------------------------------------------------

def test_conformal_radius_exp_convention():
    assert math.isclose(cylinders.conformal_radius(Cylinder(0, 1)), math.e)
    assert math.isclose(
        cylinders.conformal_radius(Cylinder(0, 0.0001)), 1.0001, rel_tol=1e-7
    )


def test_conformal_radius_log_convention():
    assert math.isclose(cylinders.node_conformal_radius(0.1), math.log(10.0))
    with pytest.raises(DomainError):
        cylinders.node_conformal_radius(0.0)


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


@pytest.mark.parametrize("lam", [0.5, 0.1, 0.01])
def test_inverse_pair(lam):
    for i in range(1001):
        rho = -1.0 + 2.0 * i / 1000
        r = cylinders.r_of_rho(rho, lam)
        assert lam - 1e-15 <= r <= 1 + 1e-15
        assert abs(cylinders.rho_of_r(r, lam) - rho) < 1e-12
    assert cylinders.gluing_inverse_residual(lam, 1000) < 1e-12


def test_lambda_zero_limit():
    for rho in (0.04, 0.25, 0.81, 1.0):
        assert math.isclose(cylinders.r_of_rho(rho, 0.0), math.sqrt(rho))
        assert math.isclose(cylinders.rho_of_r(math.sqrt(rho), 0.0), rho)
    with pytest.raises(DomainError):
        cylinders.r_of_rho(-0.5, 0.0)


def test_domain_errors():
    with pytest.raises(DomainError):
        cylinders.rho_of_r(1.5, 0.1)
    with pytest.raises(DomainError):
        cylinders.r_of_rho(1.5, 0.1)
    with pytest.raises(DomainError):
        cylinders.rho_of_r(0.05, 0.1)  # below |lambda|


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


@pytest.mark.parametrize("lam", [0.5, 0.1, 0.01, 0.0])
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


def test_band_additivity_over_intervals():
    u = CylinderMap(((1, (1 + 0j,)), (2, (0.5j,))), DOM)
    left = cylinders.interval_energy(u, 0.0, 1.5)
    right = cylinders.interval_energy(u, 1.5, 4.0)
    total = cylinders.interval_energy(u, 0.0, 4.0)
    assert math.isclose(left + right, total, rel_tol=1e-12)


def test_band_outside_domain():
    with pytest.raises(DomainError):
        cylinders.band_energy(single(1), 9.5)


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
    assert all(e == 0.0 for e in report.band_energies)


def test_decay_needs_length_three():
    with pytest.raises(DomainError):
        cylinders.decay_estimate_check(single(1, domain=Cylinder(0.0, 2.0)), 2)


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


# ---------------------------------------------------------------------------
# supersolutions
# ---------------------------------------------------------------------------

def test_supersolutions_pure_gamma_star_hold_from_two():
    for l in (10, 20, 40):
        report = cylinders.supersolution_sequences(l)
        assert report.failures == ()
        assert report.holds_from == 2


def test_supersolution_decay_bound():
    for l in (10, 25):
        report = cylinders.supersolution_sequences(l)
        k_star = l // 2
        for idx, a in enumerate(report.a_plus, start=1):
            if idx <= k_star:
                assert a <= math.exp(-2.0 * idx)
            assert a <= math.e * math.exp(-2.0 * idx)


def test_supersolution_symmetry():
    l = 20
    report = cylinders.supersolution_sequences(l, k_star=10)
    for idx in range(1, l):
        assert math.isclose(
            report.a_minus[idx - 1], report.a_plus[l - idx - 1], rel_tol=1e-12
        )


def test_supersolution_k0_independent_of_length():
    k0s = {
        l: cylinders.supersolution_sequences(l, c1=0.05, alpha=1.0, s=0.5).holds_from
        for l in (10, 20, 40)
    }
    assert len(set(k0s.values())) == 1
    assert all(k0 is not None for k0 in k0s.values())


def test_supersolution_mirror_for_every_stitch():
    # A-_k at stitch k* is A+_{l-k} at stitch l - k*, exactly
    for l in (4, 7, 12):
        for k_star in range(1, l):
            report = cylinders.supersolution_sequences(l, k_star)
            mirror = cylinders.supersolution_sequences(l, l - k_star)
            assert report.a_minus == mirror.a_plus[::-1]


def _brute_force_holds_from(report, l):
    """Smallest k0 >= 2 with the inequality on all of [k0, l - k0], read
    directly off the sequences."""

    def holds(k):
        i, g = k - 1, report.gamma[k - 1]
        return all(
            a[i] >= g / 2.0 * (a[i - 1] + a[i + 1])
            for a in (report.a_plus, report.a_minus)
        )

    return next(
        (
            k0
            for k0 in range(2, l // 2 + 1)
            if all(holds(k) for k in range(k0, l - k0 + 1))
        ),
        None,
    )


def test_holds_from_is_the_brute_force_smallest_k0():
    seen = set()
    for l in range(4, 31):
        for k_star in range(1, l):
            for c1 in (0.0, 0.5, 3.0, 20.0):
                report = cylinders.supersolution_sequences(l, k_star, c1=c1)
                assert report.holds_from == _brute_force_holds_from(report, l)
                seen.add(report.holds_from)
    assert None in seen and len(seen) >= 4  # refusals and several k0 occur


def test_node_parameter_validation():
    cylinders.NodeParameter(0.05)
    cylinders.NodeParameter(0.0)
    with pytest.raises(DomainError):
        cylinders.NodeParameter(0.5)  # outside default eps
    cylinders.NodeParameter(0.5, eps=0.6)
    with pytest.raises(DomainError):
        cylinders.NodeParameter(1.2, eps=2.0)
