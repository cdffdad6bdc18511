"""Truncated formal-series branches and their local invariants.

A :class:`Branch` is a finite, exactly-stored jet of a map from one complex
variable into C^n: a list of ``(exponent, coefficient vector)`` terms over
Gaussian rationals together with the order up to which the jet is trusted.
Exponents are strictly increasing positive integers; no floating point is
used anywhere in this module.

Local invariants (multiplicity, cusp order, cusp type, jet normal form,
secondary cusp index) are extracted from *prepared* branches, whose first
coordinate is a single monomial ``c * t^mu``; :func:`prepare` reduces a
branch to this form by exact shear substitutions whenever possible.
Intersection multiplicities of pairs of plane branches are computed by an
exact resultant, with an independent series-substitution path for graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
from typing import Mapping, Sequence

from pseudocurve.cusps import CuspType
from pseudocurve.errors import (
    IndeterminateWithinTruncation,
    InvalidBranch,
    MultipleOrTruncatedBranch,
    NotPreparedBranch,
    TruncationTooShort,
)
from pseudocurve.gaussian import ONE, ZERO, GaussianRational, json_int

GR = GaussianRational


def _as_gr(value) -> GR:
    if isinstance(value, GR):
        return value
    if isinstance(value, tuple):
        return GR.of(*value)
    return GR.of(value)


# ---------------------------------------------------------------------------
# dense series helpers (coefficient lists over GaussianRational, index = degree)
# ---------------------------------------------------------------------------

def _trim(coeffs: list[GR]) -> list[GR]:
    while coeffs and coeffs[-1].is_zero():
        coeffs.pop()
    return coeffs


def _add(a: Sequence[GR], b: Sequence[GR]) -> list[GR]:
    out = [ZERO] * max(len(a), len(b))
    for i, c in enumerate(a):
        out[i] = out[i] + c
    for i, c in enumerate(b):
        out[i] = out[i] + c
    return _trim(out)


def _neg(a: Sequence[GR]) -> list[GR]:
    return [-c for c in a]


def _mul_trunc(a: Sequence[GR], b: Sequence[GR], order: int) -> list[GR]:
    """Product keeping degrees <= order."""
    out = [ZERO] * (order + 1)
    for i, ca in enumerate(a):
        if ca.is_zero() or i > order:
            continue
        for j, cb in enumerate(b):
            if i + j > order:
                break
            if not cb.is_zero():
                out[i + j] = out[i + j] + ca * cb
    return _trim(out)


def _compose_trunc(outer: Sequence[GR], inner: Sequence[GR], order: int) -> list[GR]:
    """outer(inner(t)) up to degree <= order; inner must have no constant term."""
    if inner and not inner[0].is_zero():
        raise ValueError("inner series must vanish at 0")
    result: list[GR] = []
    power: list[GR] = [ONE]
    for coeff in outer:
        if not coeff.is_zero():
            result = _add(result, _mul_trunc([coeff], power, order))
        power = _mul_trunc(power, inner, order)
        if not power:
            break
    return _trim(result)


def _series_inverse(coeffs: Sequence[GR], order: int) -> list[GR]:
    """Compositional inverse of ``c_1 t + c_2 t^2 + ...`` up to degree order."""
    if len(coeffs) < 2 or not coeffs[0].is_zero() or coeffs[1].is_zero():
        raise ValueError("series must have order exactly 1")
    inv_c1 = coeffs[1].inverse()
    out = [ZERO, inv_c1]
    for k in range(2, order + 1):
        composed = _compose_trunc(coeffs, out + [ZERO], k)
        defect = composed[k] if len(composed) > k else ZERO
        out.append(-defect * inv_c1)
    return out


def _ord(coeffs: Sequence[GR]) -> int | None:
    for i, c in enumerate(coeffs):
        if not c.is_zero():
            return i
    return None


# ---------------------------------------------------------------------------
# the branch type
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Branch:
    """Finite jet of a non-constant map (C, 0) -> (C^n, 0)."""

    ambient_dim: int
    terms: tuple[tuple[int, tuple[GR, ...]], ...]
    truncation_order: int

    def __post_init__(self) -> None:
        n = self.ambient_dim
        if n < 2:
            raise InvalidBranch("ambient dimension must be >= 2")
        if not self.terms:
            raise InvalidBranch("branch needs at least one term")
        norm = []
        prev = 0
        for exp, vec in self.terms:
            exp = int(exp)
            vec = tuple(_as_gr(c) for c in vec)
            if len(vec) != n:
                raise InvalidBranch("coefficient vector has wrong length")
            if exp <= prev:
                raise InvalidBranch("exponents must be strictly increasing and positive")
            if exp > self.truncation_order:
                raise InvalidBranch("exponent exceeds truncation order")
            if all(c.is_zero() for c in vec):
                raise InvalidBranch("zero coefficient vector")
            norm.append((exp, vec))
            prev = exp
        object.__setattr__(self, "terms", tuple(norm))

    @classmethod
    def from_coordinates(
        cls,
        coordinates: Sequence[Mapping[int, object]],
        truncation_order: int | None = None,
    ) -> "Branch":
        """Build from per-coordinate {exponent: coefficient} maps."""
        n = len(coordinates)
        exps = sorted({e for coord in coordinates for e in coord})
        if truncation_order is None:
            truncation_order = max(exps, default=0)
        terms = []
        for e in exps:
            vec = tuple(_as_gr(coord.get(e, 0)) for coord in coordinates)
            if any(not c.is_zero() for c in vec):
                terms.append((e, vec))
        return cls(n, tuple(terms), truncation_order)

    def coordinate_series(self, index: int) -> list[GR]:
        """Dense coefficient list of one coordinate, up to the highest stored
        exponent (not the truncation order, which may be far larger)."""
        out = [ZERO] * (self.terms[-1][0] + 1)
        for exp, vec in self.terms:
            out[exp] = vec[index]
        return out

    def coordinate_support(self, index: int) -> list[int]:
        return [exp for exp, vec in self.terms if not vec[index].is_zero()]

    def leading_vector(self) -> tuple[GR, ...]:
        return self.terms[0][1]

    def to_json(self) -> dict:
        return {
            "ambient_dim": self.ambient_dim,
            "truncation_order": self.truncation_order,
            "terms": [
                {"exp": exp, "coeff": [c.to_quad() for c in vec]}
                for exp, vec in self.terms
            ],
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Branch":
        """Inverse of :meth:`to_json`; a malformed payload, or a number that
        is not an integer, raises InvalidBranch."""
        try:
            terms = tuple(
                (json_int(item["exp"]), tuple(GR.from_quad(q) for q in item["coeff"]))
                for item in payload["terms"]
            )
            ambient_dim = json_int(payload["ambient_dim"])
            truncation_order = json_int(payload["truncation_order"])
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise InvalidBranch(
                f"malformed branch JSON: {type(exc).__name__}: {exc}"
            ) from exc
        return cls(ambient_dim, terms, truncation_order)


@dataclass(frozen=True)
class BranchJetNormalForm:
    """Jet data (k, l, P1, P2): first coordinate ``z^{k+1} P1(z)``, second
    ``z^{k+l+2} P2(z)``, both read inside the jet of order 2k+1."""

    k: int
    l: int
    p1: tuple[GR, ...]
    p2: tuple[GR, ...]

    def __post_init__(self) -> None:
        if not (0 <= self.l <= self.k):
            raise InvalidBranch(f"secondary index l={self.l} outside [0, {self.k}]")
        if not self.p1 or self.p1[0].is_zero():
            raise InvalidBranch("P1(0) must be nonzero")
        if len(self.p1) - 1 > self.k:
            raise InvalidBranch("deg P1 exceeds k")
        if self.l == self.k:
            if any(not c.is_zero() for c in self.p2):
                raise InvalidBranch("P2 must vanish when l = k")
        else:
            if not self.p2 or self.p2[0].is_zero():
                raise InvalidBranch("P2(0) must be nonzero when l < k")
            if len(self.p2) - 1 > self.k - self.l - 1:
                raise InvalidBranch("deg P2 exceeds k - l - 1")


# ---------------------------------------------------------------------------
# local invariants
# ---------------------------------------------------------------------------

def multiplicity(b: Branch) -> int:
    """Lowest exponent with a nonzero coefficient vector."""
    if not b.terms:
        raise InvalidBranch("branch has no terms")
    return b.terms[0][0]


def cusp_order(b: Branch) -> int:
    """Vanishing order of du at 0, i.e. multiplicity - 1."""
    return multiplicity(b) - 1


def is_prepared(b: Branch) -> bool:
    """First coordinate is a single monomial at the branch multiplicity and
    every other coordinate only carries higher terms."""
    mu = multiplicity(b)
    if b.coordinate_support(0) != [mu]:
        return False
    return all(
        min(b.coordinate_support(i), default=mu + 1) > mu
        for i in range(1, b.ambient_dim)
    )


def prepare(b: Branch) -> Branch:
    """Reduce to prepared form by exact shears ``y <- y - c * x^j``.

    Requires the first coordinate to be a constant times a monomial; since
    ``x = c0 * t^mu`` exactly, subtracting ``(d / c0^j) * x^j`` removes the
    ``t^{j*mu}`` term of another coordinate without introducing new ones.
    """
    mu = multiplicity(b)
    support0 = b.coordinate_support(0)
    if support0 != [mu]:
        raise NotPreparedBranch(
            "first coordinate must be a single monomial at the multiplicity; "
            f"its support is {support0}"
        )
    c0 = b.terms[0][1][0]
    coords = [dict() for _ in range(b.ambient_dim)]
    for exp, vec in b.terms:
        for i, c in enumerate(vec):
            if not c.is_zero():
                coords[i][exp] = c
    for i in range(1, b.ambient_dim):
        for exp in sorted(coords[i]):
            if exp % mu == 0:
                del coords[i][exp]
    return Branch.from_coordinates(coords, b.truncation_order)


def cusp_type_of_branch(b: Branch) -> CuspType:
    """Critical exponents by the gcd-drop scan over non-leading coordinates.

    Scans the union of exponent supports of coordinates 2..n in increasing
    order and records every exponent at which the running gcd drops; stops
    once the gcd reaches 1.
    """
    if not is_prepared(b):
        raise NotPreparedBranch("cusp type extraction requires prepared form")
    mu = multiplicity(b)
    support = sorted(
        {e for i in range(1, b.ambient_dim) for e in b.coordinate_support(i)}
    )
    exponents = [mu]
    d = mu
    for q in support:
        if d == 1:
            break
        g = gcd(d, q)
        if g < d:
            exponents.append(q)
            d = g
    if d != 1:
        raise MultipleOrTruncatedBranch(
            f"gcd stalls at {d} within truncation order {b.truncation_order}"
        )
    return CuspType(tuple(exponents))


def branch_from_cusp_type(p: CuspType) -> Branch:
    """Monomial model ``t -> (t^{p_0}, t^{p_1} + ... + t^{p_l})``.

    The truncation order is stretched to 2*p_0 - 1 so that the jet normal
    form of the model is always defined.
    """
    exps = p.exponents
    x_coord = {exps[0]: 1}
    y_coord = {q: 1 for q in exps[1:]}
    truncation = max(exps[-1], 2 * exps[0] - 1)
    return Branch.from_coordinates([x_coord, y_coord], truncation)


def jet_normal_form(b: Branch) -> BranchJetNormalForm:
    """Normal form (k, l, P1, P2) of the 2k+1 jet of a prepared plane branch.

    l is read off from the lowest second-coordinate exponent q <= 2k+1 as
    ``l = q - k - 2``; if the second coordinate has no term of exponent
    <= 2k+1 then l = k and P2 = 0.
    """
    if b.ambient_dim != 2:
        raise InvalidBranch("jet normal form is defined for plane branches")
    if not is_prepared(b):
        raise NotPreparedBranch("jet normal form requires prepared form")
    k = cusp_order(b)
    jet_order = 2 * k + 1
    if b.truncation_order < jet_order:
        raise TruncationTooShort(
            f"need truncation order >= {jet_order}, have {b.truncation_order}"
        )
    c0 = b.terms[0][1][0]
    p1 = (c0,)
    y_exps = [q for q in b.coordinate_support(1) if q <= jet_order]
    if not y_exps:
        return BranchJetNormalForm(k, k, p1, ())
    q0 = y_exps[0]
    l = q0 - k - 2
    y = {exp: vec[1] for exp, vec in b.terms}
    p2 = tuple(y.get(q, ZERO) for q in range(q0, y_exps[-1] + 1))
    return BranchJetNormalForm(k, l, p1, p2)


def secondary_cusp_index(b: Branch) -> int:
    """The l of :func:`jet_normal_form`."""
    return jet_normal_form(b).l


def is_ordinary_cusp(b: Branch) -> bool:
    """Cusp of order 1 with secondary index 0."""
    if b.ambient_dim != 2:
        raise InvalidBranch("ordinary cusps live in plane branches")
    if cusp_order(b) != 1:
        return False
    return secondary_cusp_index(b) == 0


def rescale_parameter(b: Branch, c) -> Branch:
    """Exact reparameterization t -> c*t (c a nonzero Gaussian rational)."""
    c = _as_gr(c)
    if c.is_zero():
        raise ValueError("rescaling constant must be nonzero")
    terms = tuple(
        (exp, tuple((c ** exp) * v for v in vec)) for exp, vec in b.terms
    )
    return Branch(b.ambient_dim, terms, b.truncation_order)


# ---------------------------------------------------------------------------
# intersection multiplicity
# ---------------------------------------------------------------------------

def _determinant(matrix: list[list[GR]]) -> GR:
    """Exact determinant by Gaussian elimination over the Gaussian rationals."""
    n = len(matrix)
    mat = [row[:] for row in matrix]
    det = ONE
    for col in range(n):
        pivot_row = next(
            (r for r in range(col, n) if not mat[r][col].is_zero()), None
        )
        if pivot_row is None:
            return ZERO
        if pivot_row != col:
            mat[col], mat[pivot_row] = mat[pivot_row], mat[col]
            det = -det
        pivot = mat[col][col]
        det = det * pivot
        inv = pivot.inverse()
        for r in range(col + 1, n):
            factor = mat[r][col] * inv
            if factor.is_zero():
                continue
            for c in range(col, n):
                mat[r][c] = mat[r][c] - factor * mat[col][c]
    return det


def _sylvester_det(a: list[list[GR]], b: list[list[GR]], t_value: GR) -> GR:
    """det of the Sylvester matrix of a(s), b(s) with t-polynomial entries
    evaluated at t = t_value."""

    def eval_entry(poly: list[GR]) -> GR:
        acc = ZERO
        power = ONE
        for coeff in poly:
            acc = acc + coeff * power
            power = power * t_value
        return acc

    am = [eval_entry(poly) for poly in a]
    bm = [eval_entry(poly) for poly in b]
    m = len(am) - 1
    n = len(bm) - 1
    size = m + n
    if size == 0:
        return ONE
    rows: list[list[GR]] = []
    for shift in range(n):
        row = [ZERO] * size
        for i, coeff in enumerate(reversed(am)):
            row[shift + i] = coeff
        rows.append(row)
    for shift in range(m):
        row = [ZERO] * size
        for i, coeff in enumerate(reversed(bm)):
            row[shift + i] = coeff
        rows.append(row)
    return _determinant(rows)


def _interpolate_ord(values: list[GR], points: list[GR]) -> int | None:
    """Order of vanishing at 0 of the polynomial through (points, values)."""
    # Newton divided differences, then expand to monomial coefficients.
    n = len(points)
    coeffs = values[:]
    for level in range(1, n):
        for i in range(n - 1, level - 1, -1):
            denom = points[i] - points[i - level]
            coeffs[i] = (coeffs[i] - coeffs[i - 1]) * denom.inverse()
    poly: list[GR] = []
    for i in reversed(range(n)):
        poly = _mul_trunc(poly, [-points[i], ONE], n) if poly else []
        poly = _add(poly, [coeffs[i]])
    return _ord(poly)


def intersection_multiplicity_resultant(b1: Branch, b2: Branch) -> int:
    """ord_t of Res_s(x2(s) - x1(t), y2(s) - y1(t)), exactly.

    The resultant in s is evaluated at enough rational t-values to determine
    it as a polynomial in t by interpolation; every determinant is computed
    over the Gaussian rationals.
    """
    if b1.ambient_dim != 2 or b2.ambient_dim != 2:
        raise InvalidBranch("intersection multiplicity needs plane branches")

    x1, y1 = b1.coordinate_series(0), b1.coordinate_series(1)
    x2, y2 = b2.coordinate_series(0), b2.coordinate_series(1)

    # a(s) = x2(s) - x1(t): s-polynomial whose entries are t-polynomials
    def build(coeffs_s: list[GR], minus_t_poly: list[GR]) -> list[list[GR]]:
        poly = [[c] if not c.is_zero() else [] for c in coeffs_s]
        const = _neg(minus_t_poly)
        poly[0] = _add(poly[0], const)
        while len(poly) > 1 and not _trim(list(poly[-1])):
            poly.pop()
        return [list(entry) for entry in poly]

    a = build(x2, x1)
    b = build(y2, y1)

    deg_s_a = len(a) - 1
    deg_s_b = len(b) - 1
    if deg_s_a == 0 and deg_s_b == 0:
        raise InvalidBranch("second branch is constant")
    deg_t = max((len(e) - 1 for e in a + b if e), default=0)
    bound = deg_s_a * deg_t + deg_s_b * deg_t + 1

    points: list[GR] = []
    value = 0
    while len(points) < bound + 1:
        points.append(GR.of(value))
        value = -value if value > 0 else -value + 1
    values = [_sylvester_det(a, b, pt) for pt in points]
    nu = _interpolate_ord(values, points)
    if nu is None:
        raise IndeterminateWithinTruncation(
            "resultant vanishes identically within truncation"
        )
    if nu > min(b1.truncation_order, b2.truncation_order):
        raise IndeterminateWithinTruncation(
            f"valuation {nu} exceeds the trusted truncation order"
        )
    return nu


def _graph_series(b: Branch, over: int) -> list[GR] | None:
    """If coordinate ``over`` of b has order 1, return the other coordinate
    as a series in it (graph form); otherwise None."""
    base = b.coordinate_series(over)
    if _ord(base) != 1:
        return None
    other = b.coordinate_series(1 - over)
    inverse = _series_inverse(base, b.truncation_order)
    return _compose_trunc(other, inverse, b.truncation_order)


def intersection_multiplicity_substitution(b1: Branch, b2: Branch) -> int:
    """Valuation path: write one branch as a graph, substitute the other.

    Needs one of the branches to be smooth and a graph over a coordinate
    axis; raises ValueError otherwise.
    """
    if b1.ambient_dim != 2 or b2.ambient_dim != 2:
        raise InvalidBranch("intersection multiplicity needs plane branches")
    order = min(b1.truncation_order, b2.truncation_order)
    for graph_branch, probe in ((b2, b1), (b1, b2)):
        for over in (0, 1):
            g = _graph_series(graph_branch, over)
            if g is None:
                continue
            base = probe.coordinate_series(over)
            other = probe.coordinate_series(1 - over)
            diff = _add(other, _neg(_compose_trunc(g, base, order)))
            nu = _ord(diff[: order + 1])
            if nu is None:
                raise IndeterminateWithinTruncation(
                    "branches agree up to truncation"
                )
            return nu
    raise ValueError("substitution path needs a smooth graph branch")


def intersection_multiplicity(b1: Branch, b2: Branch) -> int:
    """Local intersection multiplicity of two distinct plane branch germs.

    Computed by the exact resultant; equals 1 exactly for transversal smooth
    pairs.  Raises IndeterminateWithinTruncation when the stored jets cannot
    separate the branches.
    """
    return intersection_multiplicity_resultant(b1, b2)
