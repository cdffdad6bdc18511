"""Residue quadratic form: matrices, exact inertia, saddle indices."""

import random
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudocurve import residues, verify
from pseudocurve.gaussian import GaussianRational as GR
from pseudocurve.residues import InertiaResult, ResidueForm


def form(k, l, *coeffs):
    return ResidueForm(k, l, tuple(GR.of(c) for c in coeffs))


def test_validation():
    with pytest.raises(ValueError):
        ResidueForm(0, 0, (GR.of(1),))
    with pytest.raises(ValueError):
        ResidueForm(2, 2, (GR.of(1),))  # l must stay below k
    with pytest.raises(ValueError):
        ResidueForm(2, 0, (GR.of(0), GR.of(1)))  # a_0 = 0
    with pytest.raises(ValueError):
        ResidueForm(2, 1, (GR.of(1), GR.of(1)))  # deg P too big


def matrix_of(f):
    return residues.residue_form_matrix(f)


def test_matrix_k1_l0_unit():
    # Q = Re(w_0^2) = x_0^2 - y_0^2 on variables (x0, y0, x1, y1)
    m = matrix_of(form(1, 0, 1))
    assert m[0][0] == 1 and m[1][1] == -1
    assert all(
        m[i][j] == 0 for i in range(4) for j in range(4) if (i, j) not in ((0, 0), (1, 1))
    )


def test_matrix_k2_l1_unit():
    # z^{-1} coefficient is w_0^2; four null directions
    m = matrix_of(form(2, 1, 1))
    result = residues.rational_inertia(m)
    assert result == InertiaResult(1, 1, 4)


def test_matrix_k2_l0_unit():
    # Q = Re(2 w_0 w_1) = 2 x0 x1 - 2 y0 y1
    m = matrix_of(form(2, 0, 1))
    assert m[0][2] == m[2][0] == 1
    assert m[1][3] == m[3][1] == -1
    assert residues.rational_inertia(m) == InertiaResult(2, 2, 2)


def test_imaginary_coefficient():
    # Q = Re(i w_0^2) = -2 x0 y0: a hyperbolic plane
    m = matrix_of(ResidueForm(1, 0, (GR.of(0, 1),)))
    assert m[0][1] == m[1][0] == -1
    assert residues.rational_inertia(m) == InertiaResult(1, 1, 2)


@pytest.mark.parametrize(
    "k,l,coeffs,expected",
    [
        (1, 0, (1,), InertiaResult(1, 1, 2)),
        (2, 0, (1,), InertiaResult(2, 2, 2)),
        (3, 1, (2, -1), InertiaResult(2, 2, 4)),
        (3, 1, ("2", "1"), InertiaResult(2, 2, 4)),
        (4, 1, (3, -2, 1), InertiaResult(3, 3, 4)),
    ],
)
def test_inertia_examples(k, l, coeffs, expected):
    result = residues.inertia(form(k, l, *coeffs))
    assert result == expected
    assert result.s_ind == k - l
    assert result.dimension == 2 * (k + 1)


def test_index_relation_sweep_with_float_crosscheck():
    rng = random.Random(20240)
    for k in range(1, 7):
        for l in range(0, k):
            for _ in range(10):
                coeffs = [_random_nonzero(rng)]
                coeffs += [_random_any(rng) for _ in range(k - l - 1)]
                f = ResidueForm(k, l, tuple(coeffs))
                exact = residues.inertia(f)
                assert (exact.ind_plus, exact.ind_minus) == (k - l, k - l)
                assert exact.nullity == 2 * (k + 1) - 2 * (k - l)
                approx = _float_reference_inertia(residues.residue_form_matrix(f))
                assert approx == exact


def _random_nonzero(rng):
    while True:
        c = _random_any(rng)
        if not c.is_zero():
            return c


def _random_any(rng):
    return GR.of(
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
        Fraction(rng.randint(-9, 9), rng.randint(1, 9)),
    )


def test_a0_equivalence():
    assert residues.a0_equivalence_check(form(2, 0, 1, 1))
    assert residues.a0_equivalence_check(form(1, 0, 5))
    assert residues.a0_equivalence_check(form(4, 1, 3, -2, 1))


def test_rational_inertia_on_known_matrices():
    assert residues.rational_inertia([[2]]) == InertiaResult(1, 0, 0)
    assert residues.rational_inertia([[0, 1], [1, 0]]) == InertiaResult(1, 1, 0)
    assert residues.rational_inertia(
        [[1, 0, 0], [0, 0, 0], [0, 0, -3]]
    ) == InertiaResult(1, 1, 1)
    # congruence-stable under scaling rows/cols by squares
    assert residues.rational_inertia(
        [[Fraction(4), Fraction(2)], [Fraction(2), Fraction(1)]]
    ) == InertiaResult(1, 0, 1)


small_rationals = st.fractions(min_value=-5, max_value=5, max_denominator=6)
sparse_entries = st.one_of(st.just(Fraction(0)), small_rationals)


@st.composite
def symmetric_matrices(draw, entries=sparse_entries, max_size=7):
    n = draw(st.integers(1, max_size))
    # a zero diagonal forces 2x2 pivots first
    first = 1 if draw(st.booleans()) else 0
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + first, n):
            a[i][j] = a[j][i] = draw(entries)
    return a


def _congruent(b, d):
    """B^T diag(d) B, exact."""
    n = len(d)
    return [
        [sum(b[t][i] * d[t] * b[t][j] for t in range(n)) for j in range(n)]
        for i in range(n)
    ]


@st.composite
def congruent_diagonals(draw, max_size=8):
    """(B^T D B, D) with B unit upper triangular, hence invertible."""
    n = draw(st.integers(1, max_size))
    d = draw(st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    b = [
        [1 if i == j else draw(st.integers(-3, 3)) if j > i else 0 for j in range(n)]
        for i in range(n)
    ]
    return _congruent(b, d), d


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_rational_inertia_matches_float_on_well_conditioned(matrix):
    eig = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in matrix]))
    # well conditioned: every eigenvalue is clearly nonzero or rounding noise
    assume(all(abs(e) > 1e-6 or abs(e) < 1e-12 for e in eig))
    assert residues.rational_inertia(matrix) == _float_reference_inertia(matrix)


def _float_reference_inertia(matrix):
    """Floating-point cross-check: eigenvalues beyond +-1e-9 count by sign."""
    eig = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in matrix]))
    plus = int((eig > 1e-9).sum())
    minus = int((eig < -1e-9).sum())
    return InertiaResult(plus, minus, len(eig) - plus - minus)


def _dense_reference_inertia(matrix):
    """The plain elimination: same pivot rule, every active entry updated."""
    a = [[Fraction(x) for x in row] for row in matrix]
    active = list(range(len(a)))
    plus = minus = 0
    while active:
        pivot = next((i for i in active if a[i][i] != 0), None)
        if pivot is not None:
            d = a[pivot][pivot]
            plus, minus = (plus + 1, minus) if d > 0 else (plus, minus + 1)
            active.remove(pivot)
            col = {r: a[r][pivot] for r in active}
            for r in active:
                for c in active:
                    a[r][c] -= col[r] * col[c] / d
            continue
        pair = next(
            ((i, j) for i in active for j in active if i < j and a[i][j] != 0), None
        )
        if pair is None:
            break
        i, j = pair
        b = a[i][j]
        plus, minus = plus + 1, minus + 1
        active.remove(i)
        active.remove(j)
        col_i = {r: a[r][i] for r in active}
        col_j = {r: a[r][j] for r in active}
        for r in active:
            for c in active:
                a[r][c] -= (col_i[r] * col_j[c] + col_j[r] * col_i[c]) / b
    return InertiaResult(plus, minus, len(active))


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices())
def test_rational_inertia_matches_dense_elimination(matrix):
    assert residues.rational_inertia(matrix) == _dense_reference_inertia(matrix)


@settings(max_examples=150, deadline=None)
@given(congruent_diagonals())
def test_rational_inertia_of_congruent_diagonal(case):
    # Sylvester's law of inertia: B^T D B has the signs of D
    matrix, d = case
    expected = InertiaResult(
        sum(x > 0 for x in d), sum(x < 0 for x in d), sum(x == 0 for x in d)
    )
    assert residues.rational_inertia(matrix) == expected


@settings(max_examples=150, deadline=None)
@given(symmetric_matrices(entries=st.integers(-4, 4)))
def test_rational_inertia_int_entries_match_fractions(matrix):
    ints = [[int(x) for x in row] for row in matrix]
    fractions = [[Fraction(x) for x in row] for row in ints]
    assert residues.rational_inertia(ints) == residues.rational_inertia(fractions)


def test_rational_inertia_int_entries_stay_exact():
    # B^T D B with det B = -2; float elimination finds no null direction here
    matrix = _congruent([[-2, 4, -3], [-1, -2, 2], [-2, -2, 2]], [1, 1, 0])
    assert all(isinstance(x, int) for row in matrix for x in row)
    assert residues.rational_inertia(matrix) == InertiaResult(2, 0, 1)


def _add_sym_reference_matrix(f):
    """The accumulating construction: each unordered pair adds its halves."""
    size = 2 * (f.k + 1)
    a = [[Fraction(0)] * size for _ in range(size)]

    def add_sym(p, q, c):
        if p == q:
            a[p][p] += c
        else:
            a[p][q] += c / 2
            a[q][p] += c / 2

    target = f.k - f.l - 1
    for s, coeff in enumerate(f.coefficients):
        alpha, beta = coeff.re, coeff.im
        for i in range(f.k + 1):
            j = target - s - i
            if j < i or j > f.k:
                continue
            xi, yi, xj, yj = 2 * i, 2 * i + 1, 2 * j, 2 * j + 1
            if i == j:
                add_sym(xi, xi, alpha)
                add_sym(yi, yi, -alpha)
                add_sym(xi, yi, -2 * beta)
            else:
                add_sym(xi, xj, 2 * alpha)
                add_sym(yi, yj, -2 * alpha)
                add_sym(xi, yj, -2 * beta)
                add_sym(xj, yi, -2 * beta)
    return a


gaussians = st.builds(GR.of, small_rationals, small_rationals)


@st.composite
def residue_forms(draw, max_k=8):
    k = draw(st.integers(1, max_k))
    l = draw(st.integers(0, k - 1))
    a0 = draw(gaussians.filter(bool))
    rest = draw(st.lists(gaussians, max_size=k - l - 1))
    return ResidueForm(k, l, (a0, *rest))


@settings(max_examples=150, deadline=None)
@given(residue_forms())
def test_residue_form_matrix_matches_accumulating_construction(f):
    m = residues.residue_form_matrix(f)
    assert m == _add_sym_reference_matrix(f)
    assert all(type(x) is Fraction for row in m for x in row)
    assert all(m[i][j] == m[j][i] for i in range(len(m)) for j in range(i))


def _big_rational(rng):
    return Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**6))


@pytest.mark.parametrize("n,rank", [(16, 16), (16, 9), (20, 13), (24, 24), (24, 17)])
def test_rational_inertia_large_entries_match_dense_elimination(n, rank):
    # large numerators and denominators exercise the content removal; the
    # low-rank cases B^T D B end in a nonzero nullity
    rng = random.Random(1000 * n + rank)
    if rank == n:
        matrix = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                matrix[i][j] = matrix[j][i] = _big_rational(rng)
    else:
        b = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(rank)]
        d = [_big_rational(rng) or Fraction(1) for _ in range(rank)]
        matrix = [
            [sum(b[t][i] * d[t] * b[t][j] for t in range(rank)) for j in range(n)]
            for i in range(n)
        ]
    expected = _dense_reference_inertia(matrix)
    assert residues.rational_inertia(matrix) == expected
    assert expected.dimension == n


def test_rational_inertia_float_and_str_entries_are_read_exactly():
    assert residues.rational_inertia([[0.5, 0], [0, -2.0]]) == InertiaResult(1, 1, 0)
    assert residues.rational_inertia([["1/3", "1/2"], ["1/2", "3/4"]]) == InertiaResult(
        1, 0, 1
    )


def test_rational_inertia_counts_zero_rows_as_nullity():
    assert residues.rational_inertia([[0, 0, 0], [0, 1, 2], [0, 2, 1]]) == InertiaResult(
        1, 1, 1
    )
    assert residues.rational_inertia([[0, 0], [0, 0]]) == InertiaResult(0, 0, 2)
    # a zero row between two coupled rows: the 2x2 pivot still finds them
    assert residues.rational_inertia(
        [[0, 0, 5], [0, 0, 0], [5, 0, 0]]
    ) == InertiaResult(1, 1, 1)
    assert residues.rational_inertia([]) == InertiaResult(0, 0, 0)


def test_suite_saddle_makes_two_inertia_calls_per_case(monkeypatch):
    calls = []
    kernel = residues.rational_inertia

    def counting(matrix):
        calls.append(len(matrix))
        return kernel(matrix)

    monkeypatch.setattr(residues, "rational_inertia", counting)
    cert = verify.suite_saddle(cases=2)
    saddle_cases = sum(k for k in range(1, 7)) * 2  # (k, l) pairs x cases
    assert cert.passed and cert.cases_run == 3 * saddle_cases
    assert len(calls) == 2 * saddle_cases


def test_saddle_index_at_cusp():
    assert residues.saddle_index_at_cusp(1, 0, 0) == 1
    assert residues.saddle_index_at_cusp(1, 1, 0) == 0
    assert residues.saddle_index_at_cusp(3, 1, 1) == 1
    with pytest.raises(ValueError):
        residues.saddle_index_at_cusp(1, 2, 0)
    with pytest.raises(ValueError):
        residues.saddle_index_at_cusp(1, 0, -1)


def test_saddle_index_monotonicity():
    for k in range(1, 5):
        for l in range(0, k + 1):
            for nu in range(0, 4):
                here = residues.saddle_index_at_cusp(k, l, nu)
                if l < k:
                    assert here >= residues.saddle_index_at_cusp(k, l + 1, nu)
                assert here >= residues.saddle_index_at_cusp(k, l, nu + 1)
                assert residues.saddle_index_at_cusp(k + 1, l, nu) >= here


def test_total_saddle_index():
    assert residues.total_saddle_index([(1, 0, 0)] * 3) == 3
    assert residues.total_saddle_index([]) == 0
    assert residues.total_saddle_index([(1, 0, 0), (2, 1, 0)]) == 2
