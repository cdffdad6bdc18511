"""Oracle cross-check suites and machine-readable certificates.

Every suite pits a closed-form formula against an independent oracle
(exhaustive enumeration, exact elimination, or a closed form derived a
second way) and reports a :class:`VerificationCertificate`.  Suites are
deterministic for a fixed seed.  A certificate names its suite's formula
anchor once, and every failure record carries it, with the offending input
and the expected and the computed value.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction
from typing import Callable

from pseudocurve import __version__, branches, cusps, cylinders, indices, residues
from pseudocurve.errors import DegenerateMap
from pseudocurve.gaussian import GaussianRational

# Suite sizes; certificates are pinned to them, so fixed by suite, seed and version.
_SADDLE_CASES = 50  # random P per pair (k, l)
_DECAY_CASES = 100  # random Laurent maps
_MAX_P_LAST = 30
_VOLUME_GRID = 200
_GLUING_GRID = 1000


class VerificationCertificate:
    """Cases run and failed by one suite.  The certificate names the suite's
    formula anchor once, and every failure record carries it.  A case's
    ``key`` is its input text or a zero-argument callable returning it,
    called only if the case fails.  A mutable accumulator, not a value type."""

    __slots__ = ("suite", "anchor", "seed", "cases_run", "failures")

    def __init__(self, suite: str, anchor: str, seed: int = 0) -> None:
        self.suite = suite
        self.anchor = anchor
        self.seed = seed
        self.cases_run = 0
        self.failures = []

    def check(self, key, expected, got) -> bool:
        return self._record(expected == got, key, lambda: repr(expected), got)

    def check_le(self, key, value: float, bound: float) -> bool:
        return self._record(value <= bound, key, lambda: f"<= {bound!r}", value)

    def _record(self, ok: bool, key, expected: Callable[[], str], got):
        self.cases_run += 1
        if not ok:
            self.failures.append({
                "input": key() if callable(key) else key,
                "expected": expected(),
                "got": repr(got),
                "anchor": self.anchor,
            })
        return ok

    @property
    def cases_failed(self) -> int:
        return len(self.failures)

    @property
    def passed(self) -> bool:
        """A certificate that ran no case proves nothing and does not pass."""
        return self.cases_run > 0 and not self.failures

    def to_json(self) -> dict:
        return {
            "suite": self.suite,
            "cases_run": self.cases_run,
            "cases_failed": self.cases_failed,
            "failures": sorted(self.failures, key=lambda f: f["input"]),
            "seed": self.seed,
            "versions": {"package": __version__, "format": 1},
        }


def _rng(seed: int, suite: str) -> random.Random:
    return random.Random(f"{seed}:{suite}")


def _random_rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


def _random_gaussian(rng: random.Random, nonzero: bool = False) -> GaussianRational:
    while True:
        value = GaussianRational(_random_rational(rng), _random_rational(rng))
        if not nonzero or value:
            return value


# ---------------------------------------------------------------------------
# suites
# ---------------------------------------------------------------------------

def suite_saddle(seed: int = 0) -> VerificationCertificate:
    """Exact inertia sweep: every (k, l, random P) must give (k-l, k-l)."""
    cert = VerificationCertificate("saddle", residues.ANCHOR_SADDLE, seed=seed)
    rng = _rng(seed, "saddle")
    for k in range(1, 7):
        for l in range(0, k):
            for case in range(_SADDLE_CASES):
                deg = k - l - 1
                coeffs = [_random_gaussian(rng, nonzero=True)]
                coeffs += [_random_gaussian(rng) for _ in range(deg)]
                form = residues.ResidueForm(k, l, tuple(coeffs))
                result = residues.inertia(form)
                key = lambda: f"k={k} l={l} case={case} P={[str(c) for c in coeffs]}"
                expected = (k - l, k - l, 2 * (k + 1) - 2 * (k - l))
                got = (result.ind_plus, result.ind_minus, result.nullity)
                cert.check(key, expected, got)
                cert.check(lambda: key() + " s_ind", k - l, result.s_ind)
                a0_same = residues.a0_equivalence_check(form, result)
                cert.check(lambda: key() + " a0-equivalence", True, a0_same)
    return cert


def suite_delta(seed: int = 0) -> VerificationCertificate:
    """Exhaustive: the combinatorial count is twice the semigroup gap count."""
    cert = VerificationCertificate("delta", cusps.ANCHOR_DELTA, seed=seed)
    for p in cusps.enumerate_cusp_types(_MAX_P_LAST):
        formula = cusps.nodal_number_formula(p)
        gaps = cusps.nodal_number_oracle(p)
        key = lambda: f"p={list(p.exponents)}"
        cert.check(key, 2 * gaps, formula)
        cert.check(lambda: key() + " delta", gaps, cusps.nodal_number(p))
    return cert


def suite_feasibility(seed: int = 0) -> VerificationCertificate:
    """Degree-6 anchor (16 vs 17), the obstruction flip at degree 7, and the
    knapsack's worst count over all splittings against the closed form and
    against its own splitting's capacities 3e - 1 + g(e) from the genus formula."""
    cert = VerificationCertificate("feasibility", indices.ANCHOR_FEASIBILITY, seed=seed)
    report6 = indices.cp2_multiple_component_obstruction(6)
    cert.check("d=6 worst_count", 16, report6.worst_count)
    cert.check("d=6 required", 17, report6.required)
    for d in range(1, 7):
        cert.check(
            lambda: f"d={d} obstructed",
            True,
            indices.cp2_multiple_component_obstruction(d).obstructed,
        )
    cert.check(
        "d=7 obstructed", False, indices.cp2_multiple_component_obstruction(7).obstructed
    )
    for d in range(1, 15):
        knapsack = indices.cp2_multiple_component_obstruction(d, all_splittings=True)
        cert.check(
            lambda: f"d={d} worst_count against all splittings",
            knapsack.worst_count,
            indices.cp2_multiple_component_obstruction(d).worst_count,
        )
        adjunction = sum(
            3 * deg - 1 + indices.genus_formula_solve(
                indices.CurveData(mu=3 * deg, self_int=deg * deg, genera=(0,))
            )
            for deg, _ in knapsack.worst_splitting
        )
        cert.check(
            lambda: f"d={d} worst_count against adjunction capacities",
            adjunction,
            knapsack.worst_count,
        )
    return cert


def suite_genus(seed: int = 0) -> VerificationCertificate:
    """Smooth plane curve of degree d has genus (d-1)(d-2)/2."""
    cert = VerificationCertificate("genus", indices.ANCHOR_GENUS, seed=seed)
    for d in range(1, 11):
        data = indices.CurveData(mu=3 * d, self_int=d * d, genera=(0,), delta=0)
        solved = indices.genus_formula_solve(data)
        cert.check(lambda: f"d={d}", (d - 1) * (d - 2) // 2, solved)
        smooth = indices.cp2_smooth_curve(d)
        cert.check(lambda: f"d={d} check", True, indices.genus_formula_check(smooth))
    return cert


def suite_index(seed: int = 0) -> VerificationCertificate:
    """Over the whole (mu, n, g) box: the marked index at m = 0 equals the
    unmarked one, and the dimension count; then rigidity."""
    cert = VerificationCertificate("index", indices.ANCHOR_INDEX, seed=seed)
    mismatches = 0
    for mu, n, g in itertools.product(range(-50, 51), range(2, 7), range(26)):
        projection = indices.moduli_projection_index(mu, n, g)
        if indices.marked_moduli_index(mu, n, g, 0) != projection:
            mismatches += 1
        aut = 3 if g == 0 else 1 if g == 1 else 0  # dim_C Aut(Sigma_g)
        if indices.gromov_operator_index(mu, n, g) - projection != 2 * (
            aut - indices.teichmueller_dim(g)
        ):
            mismatches += 1
    cert.check("box mu=-50..50 n=2..6 g=0..25", 0, mismatches)
    for d in range(1, 11):
        got = indices.marked_moduli_index(3 * d, 2, 0, 3 * d - 1)
        cert.check(lambda: f"rigidity d={d}", 0, got)
    return cert


def suite_cosh(seed: int = 0) -> VerificationCertificate:
    """Single-mode three-band ratios hit 1/cosh(2) and 1/cosh(4) exactly."""
    cert = VerificationCertificate("cosh", cylinders.ANCHOR_COSH, seed=seed)
    for m, target in ((1, cylinders.GAMMA_STAR), (2, cylinders.GAMMA_2)):
        u = cylinders.CylinderMap(((m, (1.0 + 0j,)),), 10)
        for k in (1.0, 4.0, 7.0):
            ratio = cylinders.three_band_ratio(u, k)
            cert.check_le(lambda: f"m={m} k={k}", abs(ratio - target), 1e-12)
    return cert


def suite_volume(seed: int = 0) -> VerificationCertificate:
    """Constant-volume-form identity of the gluing coordinates."""
    cert = VerificationCertificate("volume", cylinders.ANCHOR_VOLUME, seed=seed)
    bound = cylinders.VOLUME_TOLERANCE
    for lam in (0.5, 0.1, 0.01, 0.0):
        residual = cylinders.volume_identity_residual(lam, grid=_VOLUME_GRID)
        cert.check_le(lambda: f"|lambda|={lam} grid={_VOLUME_GRID}", residual, bound)
    return cert


def suite_gluing(seed: int = 0) -> VerificationCertificate:
    """Inverse-pair and endpoint identities of rho and R."""
    cert = VerificationCertificate("gluing", cylinders.ANCHOR_GLUING, seed=seed)
    for lam in (0.5, 0.1, 0.01):
        worst = cylinders.gluing_inverse_residual(lam, _GLUING_GRID)
        bound = cylinders.gluing_tolerance(lam)
        cert.check_le(lambda: f"|lambda|={lam} inverse pair", worst, bound)
        for label, rho, target in (
            ("R(-1)", -1.0, lam), ("R(0)", 0.0, math.sqrt(lam)), ("R(1)", 1.0, 1.0)
        ):
            cert.check_le(
                lambda: f"|lambda|={lam} {label}",
                abs(cylinders.r_of_rho(rho, lam) - target),
                1e-14,
            )
    return cert


def _random_cylinder_map(rng: random.Random, length: int) -> cylinders.CylinderMap:
    """One to four distinct modes |m| <= 5 with random C^2 coefficients."""
    count = rng.randint(1, 4)
    modes = []
    for m in rng.sample(range(-5, 6), count):
        vec = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(2))
        modes.append((m, vec))
    return cylinders.CylinderMap(tuple(modes), length)


def suite_decay(seed: int = 0) -> VerificationCertificate:
    """Random Laurent maps obey the two-sided decay shape; their high-mode
    parts never beat the 1/cosh(4) band ratio."""
    cert = VerificationCertificate("decay", cylinders.ANCHOR_DECAY, seed=seed)
    rng = _rng(seed, "decay")
    l = 10
    for case in range(_DECAY_CASES):
        u = _random_cylinder_map(rng, l)
        report = cylinders.decay_estimate_check(u)
        key = lambda: f"case={case} modes={u.mode_numbers()}"
        cert.check(lambda: key() + " finite C", True, report.passed)
        high = u.restrict_modes(lambda m: abs(m) >= 2)
        if high.modes:
            for k in range(1, l - 1):
                try:
                    ratio = cylinders.three_band_ratio(high, float(k))
                except DegenerateMap:
                    continue
                cert.check_le(
                    lambda: key() + f" band {k}", ratio, cylinders.GAMMA_2 + 1e-12
                )
    return cert


def suite_roundtrip(seed: int = 0) -> VerificationCertificate:
    """Monomial model round trip and jet normal form constraints."""
    cert = VerificationCertificate("roundtrip", branches.ANCHOR_ROUNDTRIP, seed=seed)
    for p in cusps.enumerate_cusp_types(_MAX_P_LAST):
        model = branches.branch_from_cusp_type(p)
        back = branches.cusp_type_of_branch(model)
        key = lambda: f"p={list(p.exponents)}"
        cert.check(key, tuple(p.exponents), tuple(back.exponents))
        jet = branches.jet_normal_form(model)
        cert.check(lambda: key() + " P1(0)", False, not jet.p1[0])
        cert.check(lambda: key() + " P2=0 iff l=k", jet.l == jet.k, not any(jet.p2))
    return cert


def suite_intersection(seed: int = 0) -> VerificationCertificate:
    """Local norm against the substitution path on random graph pairs, both
    ways round, and against the closed form on all ordered pairs of distinct
    coprime monomial types.  Each case's stored jets determine I."""
    cert = VerificationCertificate("intersection", branches.ANCHOR_INTERSECTION, seed=seed)
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
        key = lambda: f"graph case={case} mu={mu} k={k}"
        cert.check(key, k, norm)
        cert.check(
            lambda: key() + " substitution",
            branches.intersection_multiplicity_substitution(graph, probe),
            norm,
        )
        cert.check(
            lambda: key() + " symmetry",
            norm,
            branches.intersection_multiplicity(probe, graph),
        )
    coprime = [(p, q) for p in range(2, 5) for q in range(p + 1, 2 * p + 2)
               if math.gcd(p, q) == 1]
    models = {pq: branches.branch_from_cusp_type(cusps.CuspType(pq)) for pq in coprime}
    for (a, b), (c, d) in itertools.permutations(coprime, 2):
        cert.check(
            lambda: f"monomial ({a},{b}) ({c},{d})",
            min(a * d, b * c),
            branches.intersection_multiplicity(models[a, b], models[c, d]),
        )
    return cert


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


def run_suite(name: str, seed: int = 0) -> VerificationCertificate:
    """Run one suite.  A suite that raises yields its certificate with one
    failed case naming the exception, so every certificate still prints."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    fn = SUITES[name]
    try:
        return fn(seed=seed)
    except Exception as exc:
        cert = VerificationCertificate(name, fn.__name__, seed=seed)
        cert._record(False, "suite raised", lambda: "no exception", exc)
        return cert


def run_all(seed: int = 0) -> list[VerificationCertificate]:
    """Run every suite; order of results is fixed by suite name."""
    return [run_suite(name, seed) for name in sorted(SUITES)]
