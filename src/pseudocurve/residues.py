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

The form's matrix has one builder, :func:`scaled_residue_form_matrix`: it
returns the Python-int matrix ``den * A``, where ``den`` is the lcm of the
denominators of the coefficients' real and imaginary parts.
:func:`inertia` hands that integer matrix straight to the kernel, which
reads only Python ints, and :func:`residue_form_matrix` (the exact rational
``A`` that ``saddle`` prints) divides it by ``den``.

The inertia is computed by exact symmetric Gaussian elimination with 1x1 and
2x2 pivots (2x2 hyperbolic blocks avoid square roots), so the expected
signature ``ind_+ = ind_- = k - l`` is checked with zero tolerance.  Both
pivot kinds take one update step: a pivot is a pair ``(i, j)`` of block
indices, and a 1x1 pivot is the case ``i = j``, the degenerate block of the
symmetric 1x1/2x2 pivoting of Bunch & Kaufman (Math. Comp. 31, 1977).  The
elimination is compact: the list of lists it carries is the active block
itself, and each pivot deletes its rows and columns in place.  It is also
fraction-free: the block is kept as the primitive integer multiple of the
current Schur complement (multiply by |pivot|, subtract, divide out the
content), so all arithmetic is on Python ints and coefficient growth is no
worse than Bareiss elimination.  Positive scalars do not change signs and
deletions keep the row order, so the pivot order is exactly that of the
rational elimination: the first nonzero diagonal entry, else the first
nonzero off-diagonal pair.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Sequence

from pseudocurve.errors import _integer, _Value, check_limit
from pseudocurve.gaussian import GaussianRational

GR = GaussianRational

# Formula anchors quoted by the verify certificates and the CLI payloads.
ANCHOR_SADDLE = "inertia of Re Res_0 z^(l-k) P(z) (sum w_i z^i)^2: ind+ = ind- = k - l"


class ResidueForm(_Value):
    """Data (k, l, P) of the residue quadratic form at a cusp."""

    __slots__ = ("k", "l", "coefficients")

    def __init__(self, k: int, l: int, coefficients: Sequence[object]) -> None:
        k, l = _integer(k, "k", ValueError), _integer(l, "l", ValueError)
        if k < 1:
            raise ValueError("cusp order k must be >= 1")
        check_limit("saddle k", k)
        if not (0 <= l < k):
            raise ValueError("need 0 <= l < k")
        coeffs = tuple(GR.of(c) for c in coefficients)
        if not coeffs or not coeffs[0]:
            raise ValueError("P(0) = a_0 must be nonzero")
        if len(coeffs) - 1 > k - l - 1:
            raise ValueError("deg P must be <= k - l - 1")
        super().__init__(k, l, coeffs)


class InertiaResult(_Value):
    """Signature data of a real symmetric form.  Fields, in order: ind_plus,
    ind_minus (the numbers of positive and negative squares) and nullity."""

    __slots__ = ("ind_plus", "ind_minus", "nullity")

    @property
    def s_ind(self) -> int:
        """Saddle index: min of the two inertia indices."""
        return min(self.ind_plus, self.ind_minus)


def scaled_residue_form_matrix(f: ResidueForm) -> tuple[int, list[list[int]]]:
    """``(den, den * A)``: the form's matrix over the integers, and its scale.

    ``den`` is the lcm of the denominators of every real and imaginary part
    of the coefficients, so ``den * A`` has Python-int entries and
    ``Q(v) = v^T A v`` for the variables (x_0, y_0, ..., x_k, y_k).  Since
    ``Re(a_s w_i w_j) = alpha (x_i x_j - y_i y_j) - beta (x_i y_j + y_i x_j)``
    with ``a_s = alpha + i beta`` and ``s = k - l - 1 - i - j`` fixed by
    ``(i, j)``, every real cell receives exactly one term, assigned once per
    ordered pair ``(i, j)``.
    """
    parts = [c.as_integers() for c in f.coefficients]
    den = lcm(*(d for _, _, d in parts))
    size = 2 * (f.k + 1)
    a = [[0] * size for _ in range(size)]
    target = f.k - f.l - 1
    for s, (p, q, d) in enumerate(parts):
        if not (p or q):
            continue
        alpha = p * (den // d)
        minus_alpha = -alpha
        minus_beta = -q * (den // d)
        rest = target - s
        for i in range(max(0, rest - f.k), min(rest, f.k) + 1):
            xi, yi = 2 * i, 2 * i + 1
            xj, yj = 2 * (rest - i), 2 * (rest - i) + 1
            a[xi][xj] = alpha
            a[yi][yj] = minus_alpha
            a[xi][yj] = a[yi][xj] = minus_beta
    return den, a


def residue_form_matrix(f: ResidueForm) -> list[list[Fraction]]:
    """Symmetric matrix ``A`` of the form, ``Q(v) = v^T A v``, in exact
    rationals: the integer build of :func:`scaled_residue_form_matrix`
    divided by its scale."""
    den, a = scaled_residue_form_matrix(f)
    return [[Fraction(x, den) for x in row] for row in a]


def rational_inertia(matrix: Sequence[Sequence[int]]) -> InertiaResult:
    """Exact inertia of a symmetric matrix of Python ints.

    Symmetric congruence elimination: 1x1 pivots on the first nonzero
    diagonal entry of the active block; when its diagonal is entirely zero,
    the first nonzero off-diagonal entry yields a hyperbolic 2x2 block
    contributing (+1, -1).  The block is a compact copy, so the caller's
    matrix is never changed: zero rows are counted as nullity up front and
    left out, and each pivot deletes its rows and columns in place.

    A rational matrix is passed as a positive integer multiple, such as the
    build of :func:`scaled_residue_form_matrix`: a positive scale cannot
    change an inertia.  Invariant: the block is the primitive integer
    multiple of the current Schur complement.  A pivot ``b = S[i][j]`` with
    columns ``c_i, c_j`` and ``(s_i, s_j) = sign(b) (c_i, c_j)`` replaces it
    by ``|b| S - (s_i c_j^T + s_j c_i^T)`` on the remaining rows and
    columns, then the content is divided out; a 1x1 pivot is the case
    ``i = j`` with ``s_j = 0``, which leaves ``|b| S - sign(b) v v^T`` for
    its column ``v``.  Only a positive scalar separates this from the
    rational elimination, so every pivot has the same position and sign.
    The update is nonzero only in the rows where a pivot column is; it is
    symmetric, so each term is computed once per pair.
    """
    live = list(map(any, matrix))
    a = [list(compress(row, live)) for row in compress(matrix, live)]
    zero = len(live) - len(a)
    plus = minus = 0
    while a:
        n = len(a)
        pivot = next(((i, i) for i, row in enumerate(a) if row[i]), None) or next(
            ((i, j) for i, row in enumerate(a) for j in range(i + 1, n) if row[j]),
            None,
        )
        if pivot is None:
            zero += n
            break
        i, j = pivot
        b = a[i][j]
        del a[j]
        if i != j:
            del a[i]
            plus += 1
            minus += 1
        elif b > 0:
            plus += 1
        else:
            minus += 1
        support = [(r, row[i], row[j]) for r, row in enumerate(a) if row[i] or row[j]]
        for row in a:
            del row[j]
            if i != j:
                del row[i]
        scale = abs(b)
        if scale != 1:
            a = [[x * scale for x in row] for row in a]
        for idx, (r, ci, cj) in enumerate(support):
            si, sj = (ci, cj) if b > 0 else (-ci, -cj)
            if i == j:
                sj = 0
            row = a[r]
            row[r] -= si * cj + sj * ci
            for c, di, dj in support[idx + 1 :]:
                term = si * dj + sj * di
                row[c] -= term
                a[c][r] -= term
        g = 0
        for row in a:
            g = gcd(g, *row)
            if g == 1:
                break
        if g > 1:
            a = [[x // g for x in row] for row in a]
    return InertiaResult(plus, minus, zero)


def inertia(f: ResidueForm) -> InertiaResult:
    """Exact inertia of the residue form; expected (k-l, k-l) by the index
    relations, which the caller may assert.  The integer build goes to the
    kernel directly: a positive scale cannot change an inertia."""
    return rational_inertia(scaled_residue_form_matrix(f)[1])


def a0_equivalence_check(f: ResidueForm, result: InertiaResult) -> bool:
    """True iff ``result``, the inertia of ``f``, equals the inertia of the
    form with P := a_0, which is computed here by its own elimination."""
    return result == inertia(ResidueForm(f.k, f.l, f.coefficients[:1]))


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

