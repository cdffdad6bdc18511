"""The residue quadratic form at a cusp and its exact inertia.

For a cusp of order k with secondary index l < k and a polynomial
``P(z) = a_0 + a_1 z + ... + a_{k-l-1} z^{k-l-1}`` with ``a_0 != 0``, the
relevant quadratic form on ``(w_0, ..., w_k) in C^{k+1}`` is the real part
of the ``z^{-1}`` coefficient of

    z^{k+l} * P(z) * (sum_i w_i z^i)^2 / z^{2k},

i.e. the real part of the coefficient of ``z^{k-l-1}`` in
``P(z) * (sum w_i z^i)^2``.  No 2*pi*i factor is included: any positive
scalar rescaling leaves the inertia unchanged, which is the only claim the
form is used for.

The inertia is computed by exact symmetric Gaussian elimination with 1x1 and
2x2 pivots (2x2 hyperbolic blocks avoid square roots), so the expected
signature ``ind_+ = ind_- = k - l`` is checked with zero tolerance.  The
elimination is fraction-free: the matrix is scaled by the positive lcm of its
denominators, and after each pivot the active block is kept as the primitive
integer multiple of the current Schur complement (multiply by |pivot|,
subtract, divide out the content), so all arithmetic is on Python ints and
coefficient growth is no worse than Bareiss elimination.  Positive scalars do
not change signs, so the pivot order is exactly that of the rational
elimination: the first nonzero diagonal entry, else the first nonzero
off-diagonal pair.  The matrix is sparse (w_i and w_j couple only when
i + j <= k - l - 1), so each step updates only the rows and columns where
the pivot column is nonzero.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import gcd, lcm
from typing import Sequence

from pseudocurve.gaussian import GaussianRational

GR = GaussianRational


@dataclass(frozen=True)
class ResidueForm:
    """Data (k, l, P) of the residue quadratic form at a cusp."""

    k: int
    l: int
    coefficients: tuple[GR, ...]

    def __post_init__(self) -> None:
        if self.k < 1:
            raise ValueError("cusp order k must be >= 1")
        if not (0 <= self.l < self.k):
            raise ValueError("need 0 <= l < k")
        coeffs = tuple(GR.of(c) for c in self.coefficients)
        if not coeffs or coeffs[0].is_zero():
            raise ValueError("P(0) = a_0 must be nonzero")
        if len(coeffs) - 1 > self.k - self.l - 1:
            raise ValueError("deg P must be <= k - l - 1")
        object.__setattr__(self, "coefficients", coeffs)

    def with_constant_term_only(self) -> "ResidueForm":
        return ResidueForm(self.k, self.l, (self.coefficients[0],))


@dataclass(frozen=True)
class InertiaResult:
    """Signature data of a real symmetric form."""

    ind_plus: int
    ind_minus: int
    nullity: int

    @property
    def s_ind(self) -> int:
        """Saddle index: min of the two inertia indices."""
        return min(self.ind_plus, self.ind_minus)

    @property
    def dimension(self) -> int:
        return self.ind_plus + self.ind_minus + self.nullity


def residue_form_matrix(f: ResidueForm) -> list[list[Fraction]]:
    """Symmetric matrix of the form in real variables (x_0, y_0, ..., x_k, y_k).

    Entries are exact rationals; ``Q(v) = v^T A v``.  Since
    ``Re(a_s w_i w_j) = alpha (x_i x_j - y_i y_j) - beta (x_i y_j + y_i x_j)``
    with ``a_s = alpha + i beta`` and ``s = k - l - 1 - i - j`` fixed by
    ``(i, j)``, every real cell receives exactly one term, assigned once per
    ordered pair ``(i, j)``.
    """
    size = 2 * (f.k + 1)
    a = [[Fraction(0)] * size for _ in range(size)]
    target = f.k - f.l - 1
    for s, coeff in enumerate(f.coefficients):
        if coeff.is_zero():
            continue
        alpha, minus_alpha, minus_beta = coeff.re, -coeff.re, -coeff.im
        rest = target - s
        for i in range(max(0, rest - f.k), min(rest, f.k) + 1):
            xi, yi = 2 * i, 2 * i + 1
            xj, yj = 2 * (rest - i), 2 * (rest - i) + 1
            a[xi][xj] = alpha
            a[yi][yj] = minus_alpha
            a[xi][yj] = a[yi][xj] = minus_beta
    return a


def rational_inertia(matrix: Sequence[Sequence[Fraction]]) -> InertiaResult:
    """Exact inertia of a rational symmetric matrix.

    Symmetric congruence elimination: 1x1 pivots on the first active nonzero
    diagonal entry; when the active diagonal is entirely zero, the first
    nonzero off-diagonal entry yields a hyperbolic 2x2 block contributing
    (+1, -1).  Rows that are entirely zero are counted as nullity up front;
    they never enter a pivot or a support, so the pivot order is unchanged.

    The elimination runs over the integers.  The matrix is first scaled by
    the lcm of its denominators.  Invariant: the active block is the
    primitive integer multiple of the current Schur complement.  A 1x1 pivot
    ``d`` with column ``v`` replaces it by ``|d| S - sign(d) v v^T`` and a 2x2
    pivot ``b`` with columns ``c_i, c_j`` by
    ``|b| S - sign(b) (c_i c_j^T + c_j c_i^T)``, then the content is divided
    out.  Only a positive scalar separates this from the rational
    elimination, so every pivot has the same position and sign.  The update
    is nonzero only where the pivot column is (either column, for a 2x2
    pivot); it is symmetric, so each term is computed once per pair.
    Entries that are neither ``int`` nor ``Fraction`` are read through
    ``Fraction(x)``.
    """
    if not set(map(type, chain.from_iterable(matrix))) <= {int, Fraction}:
        matrix = [[Fraction(x) for x in row] for row in matrix]
    ratios = [[x.as_integer_ratio() for x in row] for row in matrix]
    scale = lcm(*{den for row in ratios for _, den in row})
    a = [[num * (scale // den) if num else 0 for num, den in row] for row in ratios]
    active = [r for r in range(len(a)) if any(a[r])]
    zero = len(a) - len(active)
    plus = minus = 0

    while active:
        pivot = next((i for i in active if a[i][i]), None)
        if pivot is not None:
            d = a[pivot][pivot]
            if d > 0:
                plus += 1
            else:
                minus += 1
            active.remove(pivot)
            support = [(r, a[r][pivot]) for r in active if a[r][pivot]]
            _scale_rows(a, active, abs(d))
            for idx, (r, cr) in enumerate(support):
                sr = cr if d > 0 else -cr
                row = a[r]
                row[r] -= sr * cr
                row[pivot] = 0
                for c, cc in support[idx + 1 :]:
                    term = sr * cc
                    row[c] -= term
                    a[c][r] -= term
            _remove_content(a, active)
            continue
        pair = next(
            (
                (i, j)
                for idx, i in enumerate(active)
                for j in active[idx + 1 :]
                if a[i][j]
            ),
            None,
        )
        if pair is None:
            zero += len(active)
            break
        i, j = pair
        b = a[i][j]
        plus += 1
        minus += 1
        active.remove(i)
        active.remove(j)
        support = [(r, a[r][i], a[r][j]) for r in active if a[r][i] or a[r][j]]
        _scale_rows(a, active, abs(b))
        for idx, (r, ci, cj) in enumerate(support):
            si, sj = (ci, cj) if b > 0 else (-ci, -cj)
            row = a[r]
            row[r] -= 2 * si * cj
            row[i] = row[j] = 0
            for c, di, dj in support[idx + 1 :]:
                term = si * dj + sj * di
                row[c] -= term
                a[c][r] -= term
        _remove_content(a, active)
    return InertiaResult(plus, minus, zero)


def _scale_rows(a: list[list[int]], active: list[int], factor: int) -> None:
    if factor != 1:
        for r in active:
            a[r] = [x * factor for x in a[r]]


def _remove_content(a: list[list[int]], active: list[int]) -> None:
    """Divide the active rows by their common gcd.

    Eliminated columns are zero in active rows, so whole-row gcds are the
    content of the active block.
    """
    g = 0
    for r in active:
        g = gcd(g, *a[r])
        if g == 1:
            return
    if g > 1:
        for r in active:
            a[r] = [x // g for x in a[r]]


def inertia(f: ResidueForm) -> InertiaResult:
    """Exact inertia of the residue form; expected (k-l, k-l) by the index
    relations, which the caller may assert."""
    return rational_inertia(residue_form_matrix(f))


def a0_equivalence_check(f: ResidueForm) -> bool:
    """True iff the form has the same inertia as the form with P := a_0.

    Computed independently on both sides, not assumed.
    """
    return inertia(f) == inertia(f.with_constant_term_only())


def saddle_index_at_cusp(k: int, l: int, nu: int) -> int:
    """Contribution max(0, k - l - nu) of one cusp to the saddle index.

    nu is the vanishing order at the cusp of the annihilator section pairing
    against the second variation; it is an input here, never computed.
    """
    if not (0 <= l <= k):
        raise ValueError("need 0 <= l <= k")
    if nu < 0:
        raise ValueError("nu must be >= 0")
    return max(0, k - l - nu)


def total_saddle_index(cusps: Sequence[tuple[int, int, int]]) -> int:
    """Sum of per-cusp contributions; distinct cusps pair orthogonally, so
    contributions add."""
    return sum(saddle_index_at_cusp(k, l, nu) for k, l, nu in cusps)
