"""Index, genus and feasibility calculators."""

import random
import re

import pytest

from pseudocurve import indices
from pseudocurve.errors import GenusFormulaInconsistent
from pseudocurve.indices import CurveData


# ---------------------------------------------------------------------------
# genus formula
# ---------------------------------------------------------------------------

def test_genus_formula_smooth_plane_curves():
    for d in range(1, 11):
        data = CurveData(mu=3 * d, self_int=d * d, genera=(0,), delta=0)
        assert indices.genus_formula_solve(data) == (d - 1) * (d - 2) // 2
        assert indices.genus_formula_check(indices.cp2_smooth_curve(d))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: CurveData(3, 1, ()), "need one non-negative genus per component"),
        (lambda: CurveData(3, 1, (0, -1)), "need one non-negative genus per component"),
        (lambda: CurveData(3, 1, (0,), delta=-1), "delta must be non-negative"),
        (lambda: indices.gromov_operator_index(3, 0, 0), "need n >= 1 and g >= 0"),
        (lambda: indices.gromov_operator_index(3, 2, -1), "need n >= 1 and g >= 0"),
        (lambda: indices.marked_moduli_index(3, 2, 0, -1), "marked point count must be >= 0"),
        (lambda: indices.h1_stratum_codim(-1, 0), "cohomology dimensions must be >= 0"),
        (lambda: indices.h1_stratum_codim(0, -1), "cohomology dimensions must be >= 0"),
        (lambda: indices.teichmueller_dim(-1), "genus must be >= 0"),
        (lambda: indices.cp2_multiple_component_obstruction(0), "degree must be >= 1"),
        (lambda: indices.cp2_smooth_curve(0), "degree must be >= 1"),
        (
            lambda: indices.cp2_multiple_component_obstruction(1001, all_splittings=True),
            "all splittings need degree <= 1000",
        ),
    ],
)
def test_argument_guards_name_the_fault(call, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        call()


def test_genus_formula_inconsistent():
    data = CurveData(mu=1, self_int=2, genera=(0,), delta=0)
    with pytest.raises(GenusFormulaInconsistent, match="no integer genus: 3 is odd / 2"):
        indices.genus_formula_solve(data)


def test_solve_then_check_roundtrip():
    rng = random.Random(11)
    solved = 0
    for _ in range(300):
        d = rng.randint(1, 4)
        mu = rng.randint(-20, 20)
        self_int = mu + 2 * rng.randint(-10, 20)
        delta = rng.randint(0, 10)
        base = CurveData(mu=mu, self_int=self_int, genera=(0,) * d, delta=delta)
        total = indices.genus_formula_solve(base)
        if total < 0:
            continue
        solved += 1
        for extra in (0, 1):
            genera = (total + extra,) + (0,) * (d - 1)
            fixed = CurveData(mu=mu, self_int=self_int, genera=genera, delta=delta)
            assert indices.genus_formula_check(fixed) == (extra == 0)
    assert solved > 100


# ---------------------------------------------------------------------------
# index formulas
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "mu,n,g,expected", [(3, 2, 0, 10), (0, 1, 1, 0), (18, 2, 10, 0)]
)
def test_gromov_operator_index(mu, n, g, expected):
    assert indices.gromov_operator_index(mu, n, g) == expected


@pytest.mark.parametrize(
    "mu,n,g,expected", [(3, 2, 0, 4), (0, 3, 1, 0), (18, 2, 10, 54)]
)
def test_moduli_projection_index(mu, n, g, expected):
    assert indices.moduli_projection_index(mu, n, g) == expected


def test_marked_moduli_index():
    assert indices.marked_moduli_index(18, 2, 10, 17) == 20
    for d in range(1, 11):
        assert indices.marked_moduli_index(3 * d, 2, 0, 3 * d - 1) == 0


def test_marked_index_reduces_to_projection_index():
    # each point constraint costs 2 real dimensions, at every m
    rng = random.Random(0)
    for _ in range(2000):
        mu, n, g = rng.randint(-40, 40), rng.randint(2, 6), rng.randint(0, 30)
        projection = indices.moduli_projection_index(mu, n, g)
        for m in range(11):
            assert indices.marked_moduli_index(mu, n, g, m) == projection - 2 * m


def test_operator_minus_projection_is_six_minus_six_g():
    for g in range(0, 21):
        for n in (2, 3, 5):
            diff = indices.gromov_operator_index(
                7, n, g
            ) - indices.moduli_projection_index(7, n, g)
            assert diff == 6 * (1 - g)


@pytest.mark.parametrize(
    "mu,n,g,k,h1,expected",
    [(3, 2, 0, 0, 0, 4), (0, 3, 1, 0, 1, 1), (18, 2, 10, 18, 1, 19)],
)
def test_h0_from_h1(mu, n, g, k, h1, expected):
    assert indices.h0_from_h1(mu, n, g, k, h1) == expected


def test_h0_h1_parity():
    rng = random.Random(5)
    for _ in range(500):
        h1 = rng.randint(0, 6)
        h0 = indices.h0_from_h1(
            rng.randint(-20, 20), rng.randint(2, 5), rng.randint(0, 12),
            rng.randint(0, 15), h1,
        )
        assert (h0 - h1) % 2 == 0


def test_empty_stratum_signal():
    # a negative h0 is the empty-stratum answer, not an error
    assert indices.h0_from_h1(0, 2, 0, 10, 0) < 0
    assert indices.h0_from_h1(3, 2, 0, 0, 0) >= 0


def test_h0_from_h1_rejects_negative_h1():
    # rejected whatever the sign of the h0 it would give
    for mu in (1, 5):
        with pytest.raises(ValueError, match="cohomology dimensions must be >= 0"):
            indices.h0_from_h1(mu, 2, 1, 0, -3)


def test_h1_stratum_codim():
    assert indices.h1_stratum_codim(4, 0) == 0
    assert indices.h1_stratum_codim(19, 1) == 19
    assert indices.h1_stratum_codim(3, 2) == 6


def test_cusp_count_bounds():
    b = indices.cusp_count_bounds(3, 0, 0)
    assert (b.lower, b.upper) == (3, 2) and b.contradictory
    b = indices.cusp_count_bounds(18, 10, 17)
    assert (b.lower, b.upper) == (1, 10) and not b.contradictory
    b = indices.cusp_count_bounds(0, 1, 0)
    assert (b.lower, b.upper) == (0, 0)
    # the width is always g - 1
    for mu in (-3, 0, 9):
        for g in range(6):
            for m in range(4):
                b = indices.cusp_count_bounds(mu, g, m)
                assert b.upper - b.lower == g - 1


@pytest.mark.parametrize("g,expected", [(0, 0), (1, 1), (2, 3), (5, 12)])
def test_teichmueller_dim(g, expected):
    assert indices.teichmueller_dim(g) == expected


# ---------------------------------------------------------------------------
# feasibility counts
# ---------------------------------------------------------------------------

def test_degree_six_anchor():
    report = indices.cp2_multiple_component_obstruction(6)
    assert report.worst_count == 16
    assert report.required == 17
    assert report.obstructed
    assert report.worst_splitting == ((4, 1), (1, 2))


@pytest.mark.parametrize("d,obstructed", [(1, True), (2, True), (3, True),
                                          (4, True), (5, True), (6, True),
                                          (7, False), (8, False)])
def test_obstruction_flip(d, obstructed):
    assert indices.cp2_multiple_component_obstruction(d).obstructed == obstructed


def test_degree_three_splitting():
    report = indices.cp2_multiple_component_obstruction(3)
    assert report.worst_count == 4  # line + double line
    assert report.required == 8


def test_degree_seven_not_obstructed():
    report = indices.cp2_multiple_component_obstruction(7)
    assert report.worst_count == 22  # quintic + double line
    assert report.required == 20


def test_all_splittings_mode_is_consistent():
    for d in range(1, 17):
        simple = indices.cp2_multiple_component_obstruction(d)
        strict = indices.cp2_multiple_component_obstruction(d, all_splittings=True)
        # the closed-form splitting is one of all splittings
        assert strict.worst_count >= simple.worst_count
        # and the exhaustive search finds no worse one
        assert strict.worst_count == simple.worst_count
        assert strict.obstructed == simple.obstructed
        assert sorted(strict.worst_splitting) == sorted(simple.worst_splitting)


def test_all_splittings_run_up_to_their_ceiling():
    # the knapsack's work ceiling is d = 1000; the closed form has none
    strict = indices.cp2_multiple_component_obstruction(1000, all_splittings=True)
    assert strict.worst_count == 998 * 1001 // 2 + 2
    assert indices.cp2_multiple_component_obstruction(1001).worst_count == 999 * 1002 // 2 + 2


def all_splittings(d):
    """Reference enumerator: every multiset of components (degree, mult)
    with sum deg*mult = d and some mult >= 2, pairs in non-increasing
    lexicographic order, multisets in decreasing order."""

    def rec(remaining, cap, acc):
        if remaining == 0:
            if any(m >= 2 for _, m in acc):
                yield tuple(acc)
            return
        for deg in range(min(cap[0], remaining), 0, -1):
            max_mult = remaining // deg
            if deg == cap[0]:
                max_mult = min(max_mult, cap[1])
            for mult in range(max_mult, 0, -1):
                acc.append((deg, mult))
                yield from rec(remaining - deg * mult, (deg, mult), acc)
                acc.pop()

    yield from rec(d, (d, d), [])


def enumerated_worst(d):
    """(count, splitting) of the first maximum in enumeration order."""
    return max(
        (
            (sum(deg * (deg + 3) // 2 for deg, _ in parts), parts)
            for parts in all_splittings(d)
        ),
        key=lambda pair: pair[0],
        default=(0, ()),
    )


def test_knapsack_is_the_first_enumerated_maximum():
    for d in range(1, 23):
        report = indices.cp2_multiple_component_obstruction(d, all_splittings=True)
        assert (report.worst_count, report.worst_splitting) == enumerated_worst(d)


def test_knapsack_equals_closed_form():
    for d in range(4, 121):
        report = indices.cp2_multiple_component_obstruction(d, all_splittings=True)
        assert report.worst_count == (d - 2) * (d + 1) // 2 + 2
        assert report.worst_splitting == ((d - 2, 1), (1, 2))
