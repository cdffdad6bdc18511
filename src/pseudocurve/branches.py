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
The intersection multiplicity of two plane branches is ord_t of a local
norm: the branch of smaller multiplicity n is reparametrised exactly to
``(c * s^n, y2(s))``, and I is the valuation of the product of the n
conjugate factors ``y2(s_zeta) - y1(t)``, an n x n determinant over
Q(i)[[t]].  It is returned only when the stored jets determine it, that is
when no tail beyond either truncation order can change the valuation of
any single factor; otherwise IndeterminateWithinTruncation is raised.  An
independent series-substitution path covers pairs with a smooth graph.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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


def _integer(value, what: str) -> int:
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidBranch(f"{what} must be an integer, got {value!r}") from None


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
    if not a or not b:
        return []
    out = [ZERO] * (min(order, len(a) + len(b) - 2) + 1)
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
    """Compositional inverse of ``c_1 t + c_2 t^2 + ...`` up to degree order.

    Lagrange inversion: its t^k coefficient is the t^(k-1) coefficient of
    q^k divided by k, where q = t / f(t); each power of q is one product.
    """
    if len(coeffs) < 2 or not coeffs[0].is_zero() or coeffs[1].is_zero():
        raise ValueError("series must have order exactly 1")
    f = coeffs[1:]
    inv_c1 = f[0].inverse()
    q = [inv_c1]
    for k in range(1, order):
        acc = ZERO
        for j in range(1, min(k, len(f) - 1) + 1):
            if not f[j].is_zero():
                acc = acc + f[j] * q[k - j]
        q.append(-acc * inv_c1)
    q = _trim(q)
    out = [ZERO]
    power = [ONE]
    for k in range(1, order + 1):
        power = _mul_trunc(power, q, order - 1)
        out.append(power[k - 1] * Fraction(1, k) if len(power) >= k else ZERO)
    return _trim(out)


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
        n = _integer(self.ambient_dim, "ambient dimension")
        if n < 2:
            raise InvalidBranch("ambient dimension must be >= 2")
        if not self.terms:
            raise InvalidBranch("branch needs at least one term")
        order = _integer(self.truncation_order, "truncation order")
        norm = []
        prev = 0
        for exp, vec in self.terms:
            exp = _integer(exp, "exponent")
            vec = tuple(GR.of(c) for c in vec)
            if len(vec) != n:
                raise InvalidBranch("coefficient vector has wrong length")
            if exp <= prev:
                raise InvalidBranch("exponents must be strictly increasing and positive")
            if exp > order:
                raise InvalidBranch("exponent exceeds truncation order")
            if all(c.is_zero() for c in vec):
                raise InvalidBranch("zero coefficient vector")
            norm.append((exp, vec))
            prev = exp
        object.__setattr__(self, "ambient_dim", n)
        object.__setattr__(self, "terms", tuple(norm))
        object.__setattr__(self, "truncation_order", order)

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
            vec = tuple(GR.of(coord.get(e, 0)) for coord in coordinates)
            if any(not c.is_zero() for c in vec):
                terms.append((e, vec))
        return cls(n, tuple(terms), truncation_order)

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
    c = GR.of(c)
    if c.is_zero():
        raise ValueError("rescaling constant must be nonzero")
    terms = tuple(
        (exp, tuple((c ** exp) * v for v in vec)) for exp, vec in b.terms
    )
    return Branch(b.ambient_dim, terms, b.truncation_order)


# ---------------------------------------------------------------------------
# intersection multiplicity: the substitution oracle for graph pairs
# ---------------------------------------------------------------------------

def _dense(b: Branch, index: int, order: int) -> list[GR]:
    """Trimmed dense coefficient list of one coordinate up to degree order;
    terms beyond order are never read."""
    out = [ZERO] * (min(order, b.terms[-1][0]) + 1)
    for exp, vec in b.terms:
        if exp > order:
            break
        out[exp] = vec[index]
    return _trim(out)


def _graph_series(b: Branch, over: int, order: int) -> list[GR] | None:
    """If coordinate ``over`` of b has order 1, return the other coordinate
    as a series in it up to degree order (graph form); otherwise None."""
    base = _dense(b, over, order)
    if _ord(base) != 1:
        return None
    inverse = _series_inverse(base, order)
    return _compose_trunc(_dense(b, 1 - over, order), inverse, order)


def intersection_multiplicity_substitution(b1: Branch, b2: Branch) -> int:
    """Valuation path: write one branch as a graph, substitute the other.

    Needs one of the branches to be smooth and a graph over a coordinate
    axis; raises ValueError otherwise.  Every series is cut at
    min(T1, T2); a valuation beyond it raises IndeterminateWithinTruncation.
    """
    if b1.ambient_dim != 2 or b2.ambient_dim != 2:
        raise InvalidBranch("intersection multiplicity needs plane branches")
    order = min(b1.truncation_order, b2.truncation_order)
    for graph_branch, probe in ((b2, b1), (b1, b2)):
        for over in (0, 1):
            g = _graph_series(graph_branch, over, order)
            if g is None:
                continue
            base = _dense(probe, over, order)
            other = _dense(probe, 1 - over, order)
            nu = _ord(_add(other, _neg(_compose_trunc(g, base, order))))
            if nu is None:
                raise IndeterminateWithinTruncation(
                    "branches agree up to truncation"
                )
            return nu
    raise ValueError("substitution path needs a smooth graph branch")


# ---------------------------------------------------------------------------
# intersection multiplicity: the local norm
# ---------------------------------------------------------------------------

class _Series:
    """Power series over Q(i) modulo t^prec, held as Gaussian-integer
    numerators ``re[k] + i*im[k]`` over one positive common denominator,
    so that products run on Python ints."""

    __slots__ = ("re", "im", "den")

    def __init__(self, re: list[int], im: list[int], den: int = 1) -> None:
        g = gcd(den, *re, *im) if den > 1 else 1
        if g > 1:
            re = [v // g for v in re]
            im = [v // g for v in im]
            den //= g
        self.re, self.im, self.den = re, im, den

    @classmethod
    def zero(cls, prec: int) -> "_Series":
        return cls([0] * prec, [0] * prec)

    @classmethod
    def of(cls, terms: Mapping[int, GR], prec: int) -> "_Series":
        """sum of c * t^e over the terms with e < prec."""
        parts = [(exp, _gauss_ints(c)) for exp, c in terms.items() if exp < prec]
        den = lcm(*(d for _, (_, _, d) in parts))
        re, im = [0] * prec, [0] * prec
        for exp, (p, q, d) in parts:
            re[exp], im[exp] = p * (den // d), q * (den // d)
        return cls(re, im, den)

    def __bool__(self) -> bool:
        return any(self.re) or any(self.im)

    def ord(self) -> int | None:
        for k, (r, i) in enumerate(zip(self.re, self.im)):
            if r or i:
                return k
        return None

    def scaled(self, c: GR) -> "_Series":
        p, q, d = _gauss_ints(c)
        return _Series(
            [r * p - i * q for r, i in zip(self.re, self.im)],
            [r * q + i * p for r, i in zip(self.re, self.im)],
            self.den * d,
        )

    def divided(self, k: int) -> "_Series":
        return _Series(self.re, self.im, self.den * k)

    def __add__(self, other: "_Series") -> "_Series":
        if not other:
            return self
        if not self:
            return other
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        return _Series(
            [a * f + b * g for a, b in zip(self.re, other.re)],
            [a * f + b * g for a, b in zip(self.im, other.im)],
            den,
        )

    def __neg__(self) -> "_Series":
        return _Series([-v for v in self.re], [-v for v in self.im], self.den)

    def __sub__(self, other: "_Series") -> "_Series":
        return self + (-other)

    def __mul__(self, other: "_Series") -> "_Series":
        prec = len(self.re)
        re, im = [0] * prec, [0] * prec
        support = [
            (j, br, bi) for j, (br, bi) in enumerate(zip(other.re, other.im)) if br or bi
        ]
        for i, (ar, ai) in enumerate(zip(self.re, self.im)):
            if not (ar or ai):
                continue
            for j, br, bi in support:
                k = i + j
                if k >= prec:
                    break
                re[k] += ar * br - ai * bi
                im[k] += ar * bi + ai * br
        return _Series(re, im, self.den * other.den)


def _gauss_ints(c: GR) -> tuple[int, int, int]:
    """c = (p + q*i) / d with integers p, q and d > 0."""
    d = lcm(c.re.denominator, c.im.denominator)
    return (
        c.re.numerator * (d // c.re.denominator),
        c.im.numerator * (d // c.im.denominator),
        d,
    )


def _plane_terms(b: Branch) -> tuple[dict[int, GR], dict[int, GR]]:
    """The nonzero coefficients of the two coordinates, by exponent."""
    return tuple(
        {exp: vec[i] for exp, vec in b.terms if not vec[i].is_zero()} for i in (0, 1)
    )


def _ring_key(b: Branch):
    """Order-independent choice of the branch that supplies the ring: the
    smaller multiplicity, then the shorter jet, then the terms."""
    return (
        multiplicity(b),
        b.truncation_order,
        tuple((exp, tuple((c.re, c.im) for c in vec)) for exp, vec in b.terms),
    )


def _reparametrised(
    x: Mapping[int, GR], y: Mapping[int, GR], n: int, top: int
) -> dict[int, GR]:
    """Coefficients up to sigma^top of y(s(sigma)), where
    sigma = s * (x(s) / (c s^n))^(1/n), so that x = c * sigma^n exactly.

    Lagrange inversion gives [sigma^k] y(s(sigma)) = (1/k) [s^(k-1)] y'(s)
    phi_k(s) with phi_k = g^(-k/n), g = x / (c s^n) = 1 + g_1 s + ...; each
    phi_k comes from J.C.P. Miller's recurrence for a power of a unit
    series, j f_j = sum_i ((1 - k/n) i - j) g_i f_(j-i).  With s = L u, where
    L clears the denominators of g, and H_j = (n^2 L)^j f_j, the recurrence
    runs on Gaussian integers: the binomial coefficients of -k/n have
    denominators dividing n^(2j), so each division by j is exact.
    """
    if len(x) == 1:
        return {exp: c for exp, c in y.items() if exp <= top}
    inv_c = x[n].inverse()
    g = {exp - n: c * inv_c for exp, c in x.items() if 0 < exp - n < top}
    scale = lcm(*(_gauss_ints(c)[2] for c in g.values()))
    units = {}  # n^(2i-1) g_i L^i, a Gaussian integer
    for i, c in g.items():
        p, q, _ = _gauss_ints(c * scale ** i)
        units[i] = (p * n ** (2 * i - 1), q * n ** (2 * i - 1))
    low = min(y, default=top + 1)
    out: dict[int, GR] = {}
    for k in range(low, top + 1):
        h = [(1, 0)]
        for j in range(1, k - low + 1):
            re = im = 0
            for i, (gr, gi) in units.items():
                if i <= j:
                    w = (n - k) * i - n * j
                    hr, hi = h[j - i]
                    re += w * (gr * hr - gi * hi)
                    im += w * (gr * hi + gi * hr)
            h.append((re // j, im // j))
        acc = ZERO
        for q, c in y.items():
            if q <= k:
                hr, hi = h[k - q]
                den = (n * n * scale) ** (k - q)
                acc = acc + c * q * GR(Fraction(hr, den), Fraction(hi, den))
        if not acc.is_zero():
            out[k] = acc * Fraction(1, k)
    return out


def _ring_mul(u: list[_Series], w: list[_Series], a: _Series) -> list[_Series]:
    """Product in Q(i)[[t]][sigma] / (sigma^n - a), elements given by their
    coefficients of 1, sigma, ..., sigma^(n-1)."""
    n = len(u)
    zero = _Series.zero(len(a.re))
    low, high = [zero] * n, [zero] * n
    for i, ui in enumerate(u):
        if not ui:
            continue
        for j, wj in enumerate(w):
            if not wj:
                continue
            if i + j < n:
                low[i + j] = low[i + j] + ui * wj
            else:
                high[i + j - n] = high[i + j - n] + ui * wj
    return [low[r] + a * high[r] for r in range(n)]


def _conjugate_symmetric_functions(
    x1: Mapping[int, GR],
    y1: Mapping[int, GR],
    y2: Mapping[int, GR],
    n: int,
    c: GR,
    prec: int,
) -> list[_Series]:
    """e_0, ..., e_n modulo t^prec of the n conjugates of y2(sigma) - y1(t)
    in Q(i)[[t]][sigma] / (sigma^n - x1(t)/c), the coefficients of the
    characteristic polynomial of multiplication by y2(sigma) - y1(t)."""
    a = _Series.of(x1, prec).scaled(c.inverse())
    one = _Series.of({0: ONE}, prec)
    g = [_Series.zero(prec)] * n
    a_power, j = one, 0
    while a_power:
        for r in range(n):
            coeff = y2.get(r + j * n)
            if coeff is not None:
                g[r] = g[r] + a_power.scaled(coeff)
        a_power, j = a_power * a, j + 1
    g[0] = g[0] - _Series.of(y1, prec)
    # power sums p_k = trace(g^k) = n * (g^k)_0, then Newton's identities
    sums, power = [], g
    for k in range(1, n + 1):
        if k > 1:
            power = _ring_mul(power, g, a)
        sums.append(power[0].scaled(GR.of(n)))
    e = [one]
    for k in range(1, n + 1):
        acc = _Series.zero(prec)
        for i in range(1, k + 1):
            term = e[k - i] * sums[i - 1]
            acc = acc + term if i % 2 else acc - term
        e.append(acc.divided(k))
    return e


# Working precision ceiling of the local norm, in powers of t: a contact
# that the stored jets determine but that lies beyond it is refused.
_MAX_PRECISION = 128


def intersection_multiplicity(b1: Branch, b2: Branch) -> int:
    """Local intersection multiplicity of two plane branch germs, as ord_t of
    the local norm (Wall, *Singular Points of Plane Curves*, ch. 2-4).

    The branch of smaller multiplicity n (ties broken by :func:`_ring_key`,
    so I(b1, b2) = I(b2, b1) including refusals) supplies the ring: its
    coordinates are swapped if that lowers n, and it is reparametrised
    exactly to (c sigma^n, y2(sigma)).  I is then ord_t of the norm of
    y2(sigma) - y1(t) from Q(i)[[t]][sigma] / (sigma^n - x1(t)/c), the
    product of the n conjugate factors y2(sigma_zeta) - y1(t).

    The answer is returned only when the stored jets determine it: the
    Newton polygon of the characteristic polynomial gives every factor's
    valuation v, and each must satisfy v < T1 + 1 (a tail of the other
    branch) and v < (T2 + 1) m / n (a tail of the ring branch, with
    m = ord x1).  Otherwise IndeterminateWithinTruncation is raised, as it
    is for identical jets.  The working precision starts just above the
    valuation the leading terms give and doubles up to what these bounds
    need (at most ``_MAX_PRECISION``), so terms beyond it are never read.
    """
    if b1.ambient_dim != 2 or b2.ambient_dim != 2:
        raise InvalidBranch("intersection multiplicity needs plane branches")
    if b1.terms == b2.terms:
        raise IndeterminateWithinTruncation("the two jets are identical")
    ring, other = sorted((b1, b2), key=_ring_key)
    x2, y2 = _plane_terms(ring)
    x1, y1 = _plane_terms(other)
    if not x2 or (y2 and min(y2) < min(x2)):
        x1, y1, x2, y2 = y1, x1, y2, x2
    n = min(x2)
    t1, t2 = other.truncation_order, ring.truncation_order
    # sigma_zeta has valuation m/n; an x1 that vanishes in the jet has
    # ord x1 >= T1 + 1 in every completion
    m = min(x1) if x1 else t1 + 1
    # beyond n * min(T1 + 1, (T2 + 1) m / n) some factor is undetermined;
    # beyond E1 * E2 (Bezout on the polynomial jets) the norm of the jets
    # vanishes identically
    cap = min(n * (t1 + 1), (t2 + 1) * m, other.terms[-1][0] * ring.terms[-1][0] + 1)
    # each factor has valuation >= min(q m / n, p), q = ord y2, p = ord y1,
    # with equality unless the leading terms cancel: start just above it
    guess = [cap - 1]
    if y2:
        guess.append(min(y2) * m)
    if y1:
        guess.append(n * min(y1))
    prec = min(guess) + 1
    while True:
        top = n * ((prec - 1) // m + 1) - 1
        e = _conjugate_symmetric_functions(
            x1, y1, _reparametrised(x2, y2, n, top), n, x2[n], prec
        )
        total = e[n].ord()
        if total is not None:
            break
        if prec >= cap:
            raise IndeterminateWithinTruncation(
                f"the local norm vanishes to order {prec}: the branches agree "
                "beyond what the stored jets determine"
            )
        if prec >= _MAX_PRECISION:
            raise IndeterminateWithinTruncation(
                f"the local norm vanishes to order {prec}, the working precision"
            )
        prec = min(2 * prec, cap, _MAX_PRECISION)
    for k in range(n):
        low = e[k].ord()
        if low is None:
            continue
        rise, width = total - low, n - k
        if rise >= width * (t1 + 1) or rise * n >= width * (t2 + 1) * m:
            raise IndeterminateWithinTruncation(
                f"a conjugate factor has valuation {Fraction(rise, width)}, which a "
                f"tail beyond truncation orders {t1}, {t2} can change"
            )
    return total
