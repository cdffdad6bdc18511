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

The inertia is computed by exact symmetric Gaussian elimination over the
rationals with 1x1 and 2x2 pivots (2x2 hyperbolic blocks avoid square
roots), so the expected signature ``ind_+ = ind_- = k - l`` is checked with
zero tolerance.  The matrix is sparse (w_i and w_j couple only when
i + j <= k - l - 1), so each elimination step updates only the rows and
columns where the pivot column is nonzero; the pivot order is unchanged by
this, still the first nonzero diagonal entry, else the first nonzero
off-diagonal pair.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
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
        coeffs = tuple(
            c if isinstance(c, GR) else GR.of(c) for c in self.coefficients
        )
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

    Entries are exact rationals; ``Q(v) = v^T A v``.
    """
    size = 2 * (f.k + 1)
    a = [[Fraction(0)] * size for _ in range(size)]

    def add_sym(p: int, q: int, c: Fraction) -> None:
        if p == q:
            a[p][p] += c
        else:
            half = c / 2
            a[p][q] += half
            a[q][p] += half

    target = f.k - f.l - 1
    for s, coeff in enumerate(f.coefficients):
        if coeff.is_zero():
            continue
        alpha, beta = coeff.re, coeff.im
        rest = target - s
        for i in range(0, f.k + 1):
            j = rest - i
            if j < i or j > f.k:
                continue
            xi, yi = 2 * i, 2 * i + 1
            xj, yj = 2 * j, 2 * j + 1
            if i == j:
                # Re(a_s * w_i^2) = alpha*(x^2 - y^2) - 2*beta*x*y
                add_sym(xi, xi, alpha)
                add_sym(yi, yi, -alpha)
                add_sym(xi, yi, -2 * beta)
            else:
                # the square counts w_i*w_j twice
                add_sym(xi, xj, 2 * alpha)
                add_sym(yi, yj, -2 * alpha)
                add_sym(xi, yj, -2 * beta)
                add_sym(xj, yi, -2 * beta)
    return a


def rational_inertia(matrix: Sequence[Sequence[Fraction]]) -> InertiaResult:
    """Exact inertia of a rational symmetric matrix.

    Symmetric congruence elimination: 1x1 pivots on the first active nonzero
    diagonal entry; when the active diagonal is entirely zero, the first
    nonzero off-diagonal entry yields a hyperbolic 2x2 block contributing
    (+1, -1).  Each step updates only the block of active rows and columns
    where the pivot column (either column, for a 2x2 pivot) is nonzero; the
    update elsewhere is exactly zero, so skipping it changes neither the
    pivot order nor any entry.  The update term is symmetric in row and
    column, so it is computed once per pair.
    """
    a = [[x if isinstance(x, Fraction) else Fraction(x) for x in row] for row in matrix]
    active = list(range(len(a)))
    plus = minus = zero = 0

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
            for idx, (r, cr) in enumerate(support):
                factor = cr / d
                row = a[r]
                row[r] -= factor * cr
                for c, cc in support[idx + 1 :]:
                    term = factor * cc
                    row[c] -= term
                    a[c][r] -= term
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
        for idx, (r, ci, cj) in enumerate(support):
            fi, fj = ci / b, cj / b
            row = a[r]
            row[r] -= fi * cj + fj * ci
            for c, di, dj in support[idx + 1 :]:
                term = fi * dj + fj * di
                row[c] -= term
                a[c][r] -= term
    return InertiaResult(plus, minus, zero)


def inertia(f: ResidueForm) -> InertiaResult:
    """Exact inertia of the residue form; expected (k-l, k-l) by the index
    relations, which the caller may assert."""
    return rational_inertia(residue_form_matrix(f))


def float_inertia_check(
    matrix: Sequence[Sequence[Fraction]], tol: float = 1e-9
) -> InertiaResult:
    """Secondary floating-point cross-check via eigenvalues."""
    import numpy as np

    eig = np.linalg.eigvalsh(np.array([[float(x) for x in row] for row in matrix]))
    plus = int((eig > tol).sum())
    minus = int((eig < -tol).sum())
    return InertiaResult(plus, minus, len(eig) - plus - minus)


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
