"""Oracle cross-check suites and machine-readable certificates.

Every suite pits a closed-form formula against an independent oracle
(exhaustive enumeration, exact elimination, or a closed form derived a
second way) and reports a :class:`VerificationCertificate`.  Suites are
deterministic for a fixed seed; failures carry the offending input, the
expected and the computed value, and a formula anchor string.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable

from pseudocurve import __version__, branches, cusps, cylinders, indices, residues
from pseudocurve.errors import DegenerateMap
from pseudocurve.gaussian import GaussianRational


@dataclass
class VerificationCertificate:
    suite: str
    cases_run: int = 0
    cases_failed: int = 0
    failures: list = field(default_factory=list)
    seed: int = 0
    versions: dict = field(default_factory=lambda: {"package": __version__, "format": 1})

    def check(self, key: str, expected, got, anchor: str) -> bool:
        self.cases_run += 1
        ok = expected == got
        if not ok:
            self.cases_failed += 1
            self.failures.append(
                {"input": key, "expected": repr(expected), "got": repr(got), "anchor": anchor}
            )
        return ok

    def check_le(self, key: str, value: float, bound: float, anchor: str) -> bool:
        self.cases_run += 1
        ok = value <= bound
        if not ok:
            self.cases_failed += 1
            self.failures.append(
                {"input": key, "expected": f"<= {bound!r}", "got": repr(value), "anchor": anchor}
            )
        return ok

    def finalize(self) -> "VerificationCertificate":
        self.failures.sort(key=lambda f: f["input"])
        return self

    @property
    def passed(self) -> bool:
        """A certificate that ran no case proves nothing and does not pass."""
        return self.cases_run > 0 and self.cases_failed == 0

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "cases_failed": self.cases_failed,
            "failures": self.failures,
            "seed": self.seed,
            "versions": self.versions,
        }


def _rng(seed: int, suite: str) -> random.Random:
    return random.Random(f"{seed}:{suite}")


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_gaussian(rng: random.Random, nonzero: bool = False) -> GaussianRational:
    while True:
        value = GaussianRational(_random_rational(rng), _random_rational(rng))
        if not nonzero or not value.is_zero():
            return value


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

ANCHOR_SADDLE = "inertia of Re Res_0 z^(l-k) P(z) (sum w_i z^i)^2: ind+ = ind- = k - l"
ANCHOR_DELTA = "sum (d_{i-1} - d_i)(p_i - 1) = 2 * (semigroup gap count)"
ANCHOR_FEASIBILITY = "max over splittings of sum d_i(d_i+3)/2 vs required 3d - 1"
ANCHOR_GENUS = "g = (d-1)(d-2)/2 from 2g = q - mu + 2 - 2*delta"
ANCHOR_INDEX = "index = 2(mu + (n-3)(1-g) - m)"
ANCHOR_COSH = "single-mode three-band ratio = 1/cosh(2m)"
ANCHOR_VOLUME = "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"
ANCHOR_GLUING = "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"
ANCHOR_DECAY = "e_k <= C(e^{-2k} E_head + e^{-2(l-k)} E_tail), high modes <= 1/cosh 4"
ANCHOR_ROUNDTRIP = "cusp type of monomial model = original type; jet constraints"
ANCHOR_INTERSECTION = (
    "I(b1, b2) = I(b2, b1); graph: ord_t(y(t) - g(x(t))); "
    "(t^a, t^b), (s^c, s^d) coprime: min(a*d, b*c)"
)


def suite_saddle(seed: int = 0, cases: int = 50) -> VerificationCertificate:
    """Exact inertia sweep: every (k, l, random P) must give (k-l, k-l)."""
    cert = VerificationCertificate("saddle", seed=seed)
    rng = _rng(seed, "saddle")
    for k in range(1, 7):
        for l in range(0, k):
            for case in range(cases):
                deg = k - l - 1
                coeffs = [_random_gaussian(rng, nonzero=True)]
                coeffs += [_random_gaussian(rng) for _ in range(deg)]
                form = residues.ResidueForm(k, l, tuple(coeffs))
                result = residues.inertia(form)
                key = f"k={k} l={l} case={case} P={[str(c) for c in coeffs]}"
                expected = (k - l, k - l, 2 * (k + 1) - 2 * (k - l))
                got = (result.ind_plus, result.ind_minus, result.nullity)
                cert.check(key, expected, got, ANCHOR_SADDLE)
                cert.check(
                    key + " s_ind", k - l, result.s_ind, ANCHOR_SADDLE
                )
                a0_result = residues.inertia(form.with_constant_term_only())
                cert.check(
                    key + " a0-equivalence", True, result == a0_result, ANCHOR_SADDLE
                )
    return cert.finalize()


def suite_delta(seed: int = 0, max_p_last: int = 30) -> VerificationCertificate:
    """Exhaustive: the combinatorial count is twice the semigroup gap count."""
    cert = VerificationCertificate("delta", seed=seed)
    for p in cusps.enumerate_cusp_types(max_p_last):
        formula = cusps.nodal_number_formula(p)
        gaps = cusps.nodal_number_oracle(p)
        key = f"p={list(p.exponents)}"
        cert.check(key, 2 * gaps, formula, ANCHOR_DELTA)
        cert.check(key + " delta", gaps, cusps.nodal_number(p), ANCHOR_DELTA)
    return cert.finalize()


def suite_feasibility(seed: int = 0) -> VerificationCertificate:
    """Degree-6 anchor (16 vs 17) and the obstruction flip at degree 7."""
    cert = VerificationCertificate("feasibility", seed=seed)
    report6 = indices.cp2_multiple_component_obstruction(6)
    cert.check("d=6 worst_count", 16, report6.worst_count, ANCHOR_FEASIBILITY)
    cert.check("d=6 required", 17, report6.required, ANCHOR_FEASIBILITY)
    for d in range(1, 7):
        cert.check(
            f"d={d} obstructed",
            True,
            indices.cp2_multiple_component_obstruction(d).obstructed,
            ANCHOR_FEASIBILITY,
        )
    cert.check(
        "d=7 obstructed",
        False,
        indices.cp2_multiple_component_obstruction(7).obstructed,
        ANCHOR_FEASIBILITY,
    )
    return cert.finalize()


def suite_genus(seed: int = 0) -> VerificationCertificate:
    """Smooth plane curve of degree d has genus (d-1)(d-2)/2."""
    cert = VerificationCertificate("genus", seed=seed)
    for d in range(1, 11):
        data = indices.CurveData(n=2, mu=3 * d, self_int=d * d, genera=(0,), delta=0)
        solved = indices.genus_formula_solve(data, "genus")
        cert.check(f"d={d}", (d - 1) * (d - 2) // 2, solved, ANCHOR_GENUS)
        smooth = indices.cp2_smooth_curve(d)
        cert.check(
            f"d={d} check", True, indices.genus_formula_check(smooth), ANCHOR_GENUS
        )
    return cert.finalize()


def suite_index(seed: int = 0, cases: int = 10000) -> VerificationCertificate:
    """Marked index at m = 0 equals the unmarked one; dimension count; rigidity."""
    cert = VerificationCertificate("index", seed=seed)
    rng = _rng(seed, "index")
    mismatches = 0
    for _ in range(cases):
        mu = rng.randint(-50, 50)
        n = rng.randint(2, 6)
        g = rng.randint(0, 25)
        if indices.marked_moduli_index(mu, n, g, 0) != indices.moduli_projection_index(
            mu, n, g
        ):
            mismatches += 1
        aut = 3 if g == 0 else 1 if g == 1 else 0  # dim_C Aut(Sigma_g)
        if (
            indices.gromov_operator_index(mu, n, g)
            - indices.moduli_projection_index(mu, n, g)
            != 2 * (aut - indices.teichmueller_dim(g))
        ):
            mismatches += 1
    cert.check(f"random sweep x{cases}", 0, mismatches, ANCHOR_INDEX)
    for d in range(1, 11):
        got = indices.marked_moduli_index(3 * d, 2, 0, 3 * d - 1)
        cert.check(f"rigidity d={d}", 0, got, ANCHOR_INDEX)
    return cert.finalize()


def suite_cosh(seed: int = 0) -> VerificationCertificate:
    """Single-mode three-band ratios hit 1/cosh(2) and 1/cosh(4) exactly."""
    cert = VerificationCertificate("cosh", seed=seed)
    domain = cylinders.Cylinder(0.0, 10.0)
    for m, target in ((1, cylinders.GAMMA_STAR), (2, cylinders.GAMMA_2)):
        u = cylinders.CylinderMap(((m, (1.0 + 0j,)),), domain)
        for k in (1.0, 4.0, 7.0):
            ratio = cylinders.three_band_ratio(u, k)
            cert.check_le(
                f"m={m} k={k}", abs(ratio - target), 1e-12, ANCHOR_COSH
            )
    return cert.finalize()


def suite_volume(seed: int = 0, grid: int = 200) -> VerificationCertificate:
    """Constant-volume-form identity of the gluing coordinates."""
    cert = VerificationCertificate("volume", seed=seed)
    for lam in (0.5, 0.1, 0.01, 0.0):
        residual = cylinders.volume_identity_residual(lam, grid=grid)
        cert.check_le(f"|lambda|={lam} grid={grid}", residual, 1e-10, ANCHOR_VOLUME)
    return cert.finalize()


def suite_gluing(seed: int = 0, grid: int = 1000) -> VerificationCertificate:
    """Inverse-pair and endpoint identities of rho and R."""
    cert = VerificationCertificate("gluing", seed=seed)
    for lam in (0.5, 0.1, 0.01):
        worst = cylinders.gluing_inverse_residual(lam, grid)
        cert.check_le(f"|lambda|={lam} inverse pair", worst, 1e-12, ANCHOR_GLUING)
        cert.check_le(
            f"|lambda|={lam} R(-1)",
            abs(cylinders.r_of_rho(-1.0, lam) - lam),
            1e-14,
            ANCHOR_GLUING,
        )
        cert.check_le(
            f"|lambda|={lam} R(0)",
            abs(cylinders.r_of_rho(0.0, lam) - math.sqrt(lam)),
            1e-14,
            ANCHOR_GLUING,
        )
        cert.check_le(
            f"|lambda|={lam} R(1)",
            abs(cylinders.r_of_rho(1.0, lam) - 1.0),
            1e-14,
            ANCHOR_GLUING,
        )
    return cert.finalize()


def _random_cylinder_map(
    rng: random.Random, length: float, max_mode: int = 5, dim: int = 2
) -> cylinders.CylinderMap:
    count = rng.randint(1, 4)
    mode_numbers = rng.sample(range(-max_mode, max_mode + 1), count)
    modes = []
    for m in mode_numbers:
        vec = tuple(
            complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(dim)
        )
        modes.append((m, vec))
    return cylinders.CylinderMap(tuple(modes), cylinders.Cylinder(0.0, length))


def suite_decay(seed: int = 0, cases: int = 100) -> VerificationCertificate:
    """Random Laurent maps obey the two-sided decay shape; their high-mode
    parts never beat the 1/cosh(4) band ratio."""
    cert = VerificationCertificate("decay", seed=seed)
    rng = _rng(seed, "decay")
    l = 10
    for case in range(cases):
        u = _random_cylinder_map(rng, float(l))
        report = cylinders.decay_estimate_check(u, l)
        key = f"case={case} modes={u.mode_numbers()}"
        cert.check(key + " finite C", True, report.passed, ANCHOR_DECAY)
        high = u.restrict_modes(lambda m: abs(m) >= 2)
        if high.modes:
            for k in range(1, l - 1):
                try:
                    ratio = cylinders.three_band_ratio(high, float(k))
                except DegenerateMap:
                    continue
                cert.check_le(
                    key + f" band {k}",
                    ratio,
                    cylinders.GAMMA_2 + 1e-12,
                    ANCHOR_DECAY,
                )
    return cert.finalize()


def suite_roundtrip(seed: int = 0, max_p_last: int = 30) -> VerificationCertificate:
    """Monomial model round trip and jet normal form constraints."""
    cert = VerificationCertificate("roundtrip", seed=seed)
    for p in cusps.enumerate_cusp_types(max_p_last):
        model = branches.branch_from_cusp_type(p)
        back = branches.cusp_type_of_branch(model)
        key = f"p={list(p.exponents)}"
        cert.check(key, tuple(p.exponents), tuple(back.exponents), ANCHOR_ROUNDTRIP)
        jet = branches.jet_normal_form(model)
        cert.check(key + " P1(0)", False, jet.p1[0].is_zero(), ANCHOR_ROUNDTRIP)
        p2_zero = all(c.is_zero() for c in jet.p2)
        cert.check(key + " P2=0 iff l=k", jet.l == jet.k, p2_zero, ANCHOR_ROUNDTRIP)
    return cert.finalize()


def suite_intersection(seed: int = 0) -> VerificationCertificate:
    """Local norm against the substitution path on graph pairs and against
    the closed form on coprime monomial pairs, both ways round.  Every case
    is built so that its stored jets determine I."""
    cert = VerificationCertificate("intersection", seed=seed)
    rng = _rng(seed, "intersection")
    truncation = 5
    for case in range(3):
        # graph y = g(x) and the probe (c t^mu, g(c t^mu) + e t^k): I = k
        g = {j: _random_gaussian(rng) for j in range(1, truncation + 1)}
        mu = rng.randint(1, 2)
        c = _random_gaussian(rng, nonzero=True)
        k = rng.randint(mu, truncation)
        y = {mu * j: coeff * c ** j for j, coeff in g.items() if mu * j <= truncation}
        y[k] = y.get(k, GaussianRational()) + _random_gaussian(rng, nonzero=True)
        graph = branches.Branch.from_coordinates([{1: 1}, g], truncation)
        probe = branches.Branch.from_coordinates([{mu: c}, y], truncation)
        norm = branches.intersection_multiplicity(graph, probe)
        key = f"graph case={case} mu={mu} k={k}"
        cert.check(key, k, norm, ANCHOR_INTERSECTION)
        cert.check(
            key + " substitution",
            branches.intersection_multiplicity_substitution(graph, probe),
            norm,
            ANCHOR_INTERSECTION,
        )
        cert.check(
            key + " symmetry",
            norm,
            branches.intersection_multiplicity(probe, graph),
            ANCHOR_INTERSECTION,
        )
    coprime = [(p, q) for p in range(2, 5) for q in range(p + 1, 2 * p + 2)
               if math.gcd(p, q) == 1]
    for case in range(3):
        (a, b), (c, d) = rng.choice(coprime), rng.choice(coprime)
        if (a, b) == (c, d):
            c, d = d, d + 1  # coprime, and now a different type
        b1 = branches.branch_from_cusp_type(cusps.CuspType((a, b)))
        b2 = branches.branch_from_cusp_type(cusps.CuspType((c, d)))
        norm = branches.intersection_multiplicity(b1, b2)
        key = f"monomial case={case} ({a},{b}) ({c},{d})"
        cert.check(key, min(a * d, b * c), norm, ANCHOR_INTERSECTION)
        cert.check(
            key + " symmetry",
            norm,
            branches.intersection_multiplicity(b2, b1),
            ANCHOR_INTERSECTION,
        )
    return cert.finalize()


SUITES: dict[str, Callable[..., VerificationCertificate]] = {
    "saddle": suite_saddle,
    "delta": suite_delta,
    "feasibility": suite_feasibility,
    "genus": suite_genus,
    "index": suite_index,
    "cosh": suite_cosh,
    "volume": suite_volume,
    "gluing": suite_gluing,
    "decay": suite_decay,
    "roundtrip": suite_roundtrip,
    "intersection": suite_intersection,
}


def run_suite(name: str, seed: int = 0, cases: int | None = None) -> VerificationCertificate:
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    kwargs = {"seed": seed}
    if cases is not None and name in ("saddle", "index", "decay"):
        kwargs["cases"] = cases
    return fn(**kwargs)


def run_all(seed: int = 0, cases: int | None = None) -> list[VerificationCertificate]:
    """Run every suite; order of results is fixed by suite name."""
    return [run_suite(name, seed, cases) for name in sorted(SUITES)]
