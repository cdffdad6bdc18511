"""Acceptance gate: one test per criterion, each at its stated tolerance.

Every criterion runs a verification suite from :mod:`pseudocurve.verify`
(the same suites the ``pseudocurve verify`` CLI exposes) and prints one
PASS/FAIL line; stated runtime budgets are asserted.
"""

import time

from pseudocurve import verify


def _run(number: int, label: str, suite_fn, budget: float | None = None, **kwargs):
    start = time.perf_counter()
    cert = suite_fn(**kwargs)
    elapsed = time.perf_counter() - start
    status = "PASS" if cert.cases_failed == 0 else "FAIL"
    if budget is not None and elapsed >= budget:
        status = "FAIL (over budget)"
    print(
        f"ACCEPTANCE {number:2d} {label}: {status} "
        f"(cases={cert.cases_run}, failed={cert.cases_failed}, "
        f"time={elapsed:.2f}s)"
    )
    for failure in cert.failures[:5]:
        print(f"    failing case: {failure}")
    assert cert.cases_failed == 0, f"{label}: {cert.cases_failed} failures"
    if budget is not None:
        assert elapsed < budget, f"{label}: {elapsed:.2f}s exceeds {budget}s budget"
    return cert


def test_criterion_01_saddle_inertia_sweep():
    # k = 1..6, 0 <= l < k, 50 seeded random rational polynomials with
    # a_0 != 0: exact inertia equals (k-l, k-l); zero tolerance; < 10 s
    cert = _run(1, "saddle inertia sweep", verify.suite_saddle, budget=10.0, seed=0)
    assert cert.cases_run == 21 * 50 * 3  # (k, l) pairs x P x three checks


def test_criterion_02_delta_oracle_equivalence():
    # every valid cusp type with p_l <= 30, exhaustively: the combinatorial
    # count equals twice the semigroup-gap oracle; exact; < 30 s
    cert = _run(2, "delta oracle equivalence", verify.suite_delta, budget=30.0,
                seed=0)
    assert cert.cases_run == 2 * 777  # the factor-2 reading is certified


def test_criterion_03_cp2_feasibility_anchor():
    # degree 6: worst capacity 16 vs required 17; obstructed for all d <= 6,
    # not obstructed for 7; exact
    _run(3, "degree feasibility anchor", verify.suite_feasibility, seed=0)


def test_criterion_04_genus_formula_anchor():
    # g = (d-1)(d-2)/2 for smooth degree-d data, d = 1..10; exact
    _run(4, "genus formula anchor", verify.suite_genus, seed=0)


def test_criterion_05_index_consistency():
    # marked index at m = 0 equals the projection index on every (mu, n, g)
    # in [-50, 50] x [2, 6] x [0, 25]; rational-curve rigidity for d = 1..10;
    # exact
    _run(5, "index consistency", verify.suite_index, seed=0)


def test_criterion_06_cosh_constants():
    # single-mode three-band ratios equal 1/cosh 2 and 1/cosh 4 to 1e-12,
    # via closed-form band energies; < 1 s
    _run(6, "cosh constants", verify.suite_cosh, budget=1.0, seed=0)


def test_criterion_07_volume_identity():
    # max residual of the constant-volume-form identity <= 1e-10 at 201 rho
    # points (the identity does not depend on theta) for
    # |lambda| in {0.5, 0.1, 0.01, 0}; < 5 s
    _run(7, "volume identity", verify.suite_volume, budget=5.0, seed=0)


def test_criterion_08_gluing_maps():
    # inverse-pair residual <= cylinders.gluing_tolerance(lambda), about
    # 1.8e-15 to 3.0e-15 at |lambda| in {0.5, 0.1, 0.01}, on 1001 points of
    # [-1, 1]; endpoint values
    # R(-1) = |lambda|, R(0) = sqrt|lambda|, R(1) = 1 to 1e-14
    _run(8, "gluing coordinate maps", verify.suite_gluing, seed=0)


def test_criterion_09_decay_property():
    # 100 seeded random holomorphic maps on Z(0,10) with modes |m| <= 5:
    # the two-sided decay bound holds with finite fitted C, and the
    # |m| >= 2 projection obeys the three-band ratio <= 1/cosh 4 + 1e-12
    _run(9, "cylinder decay property", verify.suite_decay, seed=0)


def test_criterion_10_branch_round_trip():
    # cusp-type extraction inverts the monomial model for all types with
    # p_l <= 30, and their jet normal forms satisfy the P1/P2 constraints
    _run(10, "branch round trip", verify.suite_roundtrip, seed=0)
