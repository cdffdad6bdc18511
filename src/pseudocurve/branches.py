"""Truncated formal-series branches and their local invariants.

A :class:`Branch` is a finite, exactly-stored jet of a map from one complex
variable into C^n: a list of ``(exponent, coefficient vector)`` terms over
Gaussian rationals together with the order up to which the jet is trusted.
Exponents are strictly increasing positive integers; no floating point is
used anywhere in this module.

Local invariants (multiplicity, cusp order, cusp type, and the jet normal
form with its secondary cusp index l) are extracted from *prepared*
branches, whose first coordinate is a single monomial ``c * t^mu``;
:func:`prepare` reduces a branch to this form by exact shear substitutions
whenever possible.
The intersection multiplicity of two plane branches is ord_t of a local
norm: the branch of smaller multiplicity n is reparametrised exactly to
``(c * s^n, y2(s))``, and I is the valuation of the product of the n
conjugate factors ``y2(s_zeta) - y1(t)``, an n x n determinant over
Q(i)[[t]].  It is returned only when the stored jets determine it, that is
when no tail beyond either truncation order can change the valuation of
any single factor; otherwise IndeterminateWithinTruncation is raised.  A
series-substitution oracle covers pairs with a smooth graph.  It runs on
the norm's one series type, ``_Series``, but inverts the graph's base
coordinate by its own Lagrange inversion, so it stays independent of the
norm's reparametrisation.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from typing import Mapping, Sequence

from pseudocurve.cusps import CuspType, critical_mask, divisor_sequence
from pseudocurve.errors import (
    IndeterminateWithinTruncation,
    InvalidBranch,
    MultipleOrTruncatedBranch,
    NotPreparedBranch,
    TruncationTooShort,
    WORK_LIMITS,
    _integer,
    _Value,
    check_limit,
)
from pseudocurve.gaussian import ONE, ZERO, GaussianRational, json_int

GR = GaussianRational

# Formula anchors quoted by the verify certificates.
ANCHOR_ROUNDTRIP = "cusp type of monomial model = original type; jet constraints"
ANCHOR_INTERSECTION = (
    "I(b1, b2) = I(b2, b1); graph: ord_t(y(t) - g(x(t))); "
    "(t^a, t^b), (s^c, s^d) coprime: min(a*d, b*c)"
)


# ---------------------------------------------------------------------------
# the branch type
# ---------------------------------------------------------------------------

class Branch(_Value):
    """Finite jet of a non-constant map (C, 0) -> (C^n, 0)."""

    __slots__ = ("ambient_dim", "terms", "truncation_order")

    def __init__(
        self,
        ambient_dim: int,
        terms: Sequence[tuple[int, Sequence[object]]],
        truncation_order: int,
    ) -> None:
        n = _integer(ambient_dim, "ambient dimension", InvalidBranch)
        if n < 2:
            raise InvalidBranch("ambient dimension must be >= 2")
        if not terms:
            raise InvalidBranch("branch needs at least one term")
        order = _integer(truncation_order, "truncation order", InvalidBranch)
        norm = []
        prev = 0
        for exp, vec in terms:
            exp = _integer(exp, "exponent", InvalidBranch)
            vec = tuple(GR.of(c) for c in vec)
            if len(vec) != n:
                raise InvalidBranch("coefficient vector has wrong length")
            if exp <= prev:
                raise InvalidBranch("exponents must be strictly increasing and positive")
            if exp > order:
                raise InvalidBranch("exponent exceeds truncation order")
            if not any(vec):
                raise InvalidBranch("zero coefficient vector")
            norm.append((exp, vec))
            prev = exp
        super().__init__(n, tuple(norm), order)

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
            vec = tuple(GR.of(coord.get(e, ZERO)) for coord in coordinates)
            if any(vec):
                terms.append((e, vec))
        return cls(n, terms, truncation_order)

    def coordinate_support(self, index: int) -> list[int]:
        return [exp for exp, vec in self.terms if vec[index]]

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


class BranchJetNormalForm(_Value):
    """Jet data (k, l, P1, P2): first coordinate ``z^{k+1} P1(z)``, second
    ``z^{k+l+2} P2(z)``, both read inside the jet of order 2k+1."""

    __slots__ = ("k", "l", "p1", "p2")

    def __init__(self, k: int, l: int, p1: tuple[GR, ...], p2: tuple[GR, ...]) -> None:
        if not (0 <= l <= k):
            raise InvalidBranch(f"secondary index l={l} outside [0, {k}]")
        if not p1 or not p1[0]:
            raise InvalidBranch("P1(0) must be nonzero")
        if len(p1) - 1 > k:
            raise InvalidBranch("deg P1 exceeds k")
        if l == k:
            if any(p2):
                raise InvalidBranch("P2 must vanish when l = k")
        else:
            if not p2 or not p2[0]:
                raise InvalidBranch("P2(0) must be nonzero when l < k")
            if len(p2) - 1 > k - l - 1:
                raise InvalidBranch("deg P2 exceeds k - l - 1")
        super().__init__(k, l, p1, p2)


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
    """The one definition of prepared form: the first term is (c, 0, ..., 0)
    and no later term has a nonzero first coordinate.  Terms are nonzero, so
    c != 0 and every later term carries a coordinate other than the first."""
    return not any(b.terms[0][1][1:]) and not any(v[0] for _, v in b.terms[1:])


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
    blank = (ZERO,) * (b.ambient_dim - 1)
    terms = []
    for exp, vec in b.terms:
        if exp % mu == 0:
            vec = vec[:1] + blank
        if any(vec):
            terms.append((exp, vec))
    return Branch(b.ambient_dim, terms, b.truncation_order)


def cusp_type_of_branch(b: Branch) -> CuspType:
    """Critical exponents by the gcd-drop scan over non-leading coordinates.

    Runs ``divisor_sequence`` over the term exponents, which in a prepared
    branch are the multiplicity and then the exponents of coordinates 2..n,
    and keeps the positions that ``critical_mask`` marks; the gcd must end at 1.
    """
    if not is_prepared(b):
        raise NotPreparedBranch("cusp type extraction requires prepared form")
    scan = [exp for exp, _ in b.terms]
    divisors = divisor_sequence(scan)
    if divisors[-1] != 1:
        raise MultipleOrTruncatedBranch(
            f"gcd stalls at {divisors[-1]} within truncation order {b.truncation_order}"
        )
    return CuspType(compress(scan, critical_mask(divisors)))


def branch_from_cusp_type(p: CuspType) -> Branch:
    """Monomial model ``t -> (t^{p_0}, t^{p_1} + ... + t^{p_l})``.

    The truncation order is stretched to 2*p_0 - 1 so that the jet normal
    form of the model is always defined.
    """
    exps = p.exponents
    terms = [(exps[0], (ONE, ZERO))] + [(q, (ZERO, ONE)) for q in exps[1:]]
    truncation = max(exps[-1], 2 * exps[0] - 1)
    return Branch(2, terms, truncation)


def _plane_terms(b: Branch) -> tuple[dict[int, GR], dict[int, GR]]:
    """The nonzero coefficients of the two coordinates, by exponent."""
    return tuple({exp: vec[i] for exp, vec in b.terms if vec[i]} for i in (0, 1))


def jet_normal_form(b: Branch) -> BranchJetNormalForm:
    """Normal form (k, l, P1, P2) of the 2k+1 jet of a prepared plane branch.

    l is read off from the lowest second-coordinate exponent q <= 2k+1 as
    ``l = q - k - 2``; if the second coordinate has no term of exponent
    <= 2k+1 then l = k and P2 = 0.  P1 is the prepared first term's coefficient.
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
    p1 = (b.terms[0][1][0],)
    y = {q: c for q, c in _plane_terms(b)[1].items() if q <= jet_order}
    if not y:
        return BranchJetNormalForm(k, k, p1, ())
    q0, q1 = min(y), max(y)
    check_limit("jet P2 length", q1 - q0 + 1)
    p2 = tuple(y.get(q, ZERO) for q in range(q0, q1 + 1))
    return BranchJetNormalForm(k, q0 - k - 2, p1, p2)


# ---------------------------------------------------------------------------
# power series over Q(i), shared by both intersection paths
# ---------------------------------------------------------------------------

class _Series:
    """Power series over Q(i) modulo t^prec, held as its nonzero terms
    ``{k: (re, im)}``: Gaussian-integer numerators over one positive common
    denominator, so that products run on Python ints and cost what the
    nonzero terms cost, whatever their exponents.  No stored term is zero."""

    __slots__ = ("terms", "prec", "den")

    def __init__(self, terms: dict[int, tuple[int, int]], prec: int, den: int = 1) -> None:
        g = gcd(den, *(v for pair in terms.values() for v in pair)) if den > 1 else 1
        if g > 1:
            terms = {k: (r // g, i // g) for k, (r, i) in terms.items()}
            den //= g
        self.terms, self.prec, self.den = terms, prec, den

    @classmethod
    def of(cls, terms: Mapping[int, GR], prec: int) -> "_Series":
        """sum of c * t^e over the nonzero terms with e < prec."""
        parts = {exp: c.as_integers() for exp, c in terms.items() if exp < prec and c}
        den = lcm(*(d for _, _, d in parts.values()))
        numerators = {exp: (p * (den // d), q * (den // d)) for exp, (p, q, d) in parts.items()}
        return cls(numerators, prec, den)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def ord(self) -> int | None:
        return min(self.terms, default=None)

    def scaled(self, c: GR) -> "_Series":
        """c times the series; c != 0, so no product of nonzero terms cancels."""
        p, q, d = c.as_integers()
        return _Series(
            {k: (r * p - i * q, r * q + i * p) for k, (r, i) in self.terms.items()},
            self.prec,
            self.den * d,
        )

    def __add__(self, other: "_Series") -> "_Series":
        if not other:
            return self
        if not self:
            return other
        den = lcm(self.den, other.den)
        f, g = den // self.den, den // other.den
        terms = {k: (r * f, i * f) for k, (r, i) in self.terms.items()}
        for k, (r, i) in other.terms.items():
            ar, ai = terms.pop(k, (0, 0))
            r, i = ar + r * g, ai + i * g
            if r or i:
                terms[k] = (r, i)
        return _Series(terms, self.prec, den)

    def __sub__(self, other: "_Series") -> "_Series":
        return self + other.scaled(-ONE)

    def __mul__(self, other: "_Series") -> "_Series":
        prec = self.prec
        support = sorted(other.terms.items())
        terms: dict[int, tuple[int, int]] = {}
        for i, (ar, ai) in self.terms.items():
            for j, (br, bi) in support:
                k = i + j
                if k >= prec:
                    break
                r, m = terms.get(k, (0, 0))
                terms[k] = (r + ar * br - ai * bi, m + ar * bi + ai * br)
        nonzero = {k: (r, m) for k, (r, m) in terms.items() if r or m}
        return _Series(nonzero, prec, self.den * other.den)


# ---------------------------------------------------------------------------
# intersection multiplicity: the substitution oracle for graph pairs
# ---------------------------------------------------------------------------

def _substituted(terms: Mapping[int, GR], inner: _Series) -> _Series:
    """sum of c * inner^e over the terms, modulo the precision of inner,
    which must have no constant term."""
    prec = inner.prec
    out, power = _Series({}, prec), _Series.of({0: ONE}, prec)
    for e in range(1, max(terms, default=0) + 1):
        power = power * inner
        if not power:
            break
        if e in terms:
            out = out + power.scaled(terms[e])
    return out


def _inverse_terms(x: Mapping[int, GR], prec: int) -> dict[int, GR]:
    """Coefficients below t^prec of the compositional inverse of
    x = c t + x_2 t^2 + ...

    Lagrange inversion: the t^k coefficient is the t^(k-1) coefficient of
    q^k divided by k, where q = t / x(t); each power of q is one product.
    A monomial x = c t (below t^prec) has the inverse t / c.  This
    inversion is the oracle's own: the norm inverts through
    :func:`_reparametrised`.
    """
    x = {e: c for e, c in x.items() if e < prec}
    inv_c = x[1].inverse()
    if len(x) == 1:
        return {1: inv_c}
    q = [inv_c]
    for k in range(1, prec - 1):
        acc = sum((c * q[k + 1 - e] for e, c in x.items() if 1 < e <= k + 1), ZERO)
        q.append(-acc * inv_c)
    q = _Series.of(dict(enumerate(q)), prec - 1)
    out, power = {}, _Series.of({0: ONE}, prec - 1)
    for k in range(1, prec):
        power = power * q
        term = power.terms.get(k - 1)
        if term is not None:
            den = k * power.den
            out[k] = GR(Fraction(term[0], den), Fraction(term[1], den))
    return out


def intersection_multiplicity_substitution(b1: Branch, b2: Branch) -> int:
    """Valuation path: write one branch as a graph, substitute the other.

    Needs one of the branches to be smooth and a graph over a coordinate
    axis; raises ValueError otherwise.  Every series is cut at
    min(T1, T2); a valuation beyond it raises IndeterminateWithinTruncation.
    """
    if b1.ambient_dim != 2 or b2.ambient_dim != 2:
        raise InvalidBranch("intersection multiplicity needs plane branches")
    prec = min(b1.truncation_order, b2.truncation_order) + 1
    for graph_branch, probe in ((b2, b1), (b1, b2)):
        graph, coords = _plane_terms(graph_branch), _plane_terms(probe)
        for over in (0, 1):
            if min(graph[over], default=0) != 1:
                continue
            x, y = (_Series.of(coords[i], prec) for i in (over, 1 - over))
            # the graph's y(x^-1(x)) on the probe's parameter
            inner = _substituted(_inverse_terms(graph[over], prec), x)
            nu = (y - _substituted(graph[1 - over], inner)).ord()
            if nu is None:
                raise IndeterminateWithinTruncation("branches agree up to truncation")
            return nu
    raise ValueError("substitution path needs a smooth graph branch")


# ---------------------------------------------------------------------------
# intersection multiplicity: the local norm
# ---------------------------------------------------------------------------

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
    scale = lcm(*(c.as_integers()[2] for c in g.values()))
    units = {}  # n^(2i-1) g_i L^i, a Gaussian integer
    for i, c in g.items():
        p, q, _ = (c * scale ** i).as_integers()
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
        if acc:
            out[k] = acc * Fraction(1, k)
    return out


def _ring_mul(
    u: dict[int, _Series], w: dict[int, _Series], a: _Series, n: int
) -> dict[int, _Series]:
    """Product in Q(i)[[t]][sigma] / (sigma^n - a) of elements given as
    {r: coefficient of sigma^r}, 0 <= r < n, that hold only their nonzero
    coefficients; sigma^(n + r) comes back as a sigma^r."""
    zero, low, high = _Series({}, a.prec), {}, {}  # high: coefficients of sigma^(n + r)
    for i, ui in u.items():
        for j, wj in w.items():
            if i + j < n:
                low[i + j] = low.get(i + j, zero) + ui * wj
            else:
                high[i + j - n] = high.get(i + j - n, zero) + ui * wj
    for r, h in high.items():
        low[r] = low.get(r, zero) + a * h
    return {r: s for r, s in low.items() if s}


def _norm_element(
    x1: Mapping[int, GR], y1: Mapping[int, GR], y2: Mapping[int, GR], n: int, c: GR, prec: int
) -> tuple[dict[int, _Series], _Series]:
    """g = y2(sigma) - y1(t) in Q(i)[[t]][sigma] / (sigma^n - a), and a = x1(t)/c."""
    a = _Series.of(x1, prec).scaled(c.inverse())
    g = {0: _Series.of(y1, prec).scaled(-ONE)}
    a_power, j = _Series.of({0: ONE}, prec), 0
    for e in sorted(y2):  # sigma^e = a^j sigma^r with e = j n + r
        while a_power and j < e // n:
            a_power, j = a_power * a, j + 1
        g[e % n] = g.get(e % n, _Series({}, prec)) + a_power.scaled(y2[e])
    return {r: s for r, s in g.items() if s}, a


def _characteristic_polynomial(g: dict[int, _Series], a: _Series, n: int) -> list[_Series]:
    """c_0 = 1, c_1, ..., c_n of sum c_k X^(n-k), the characteristic polynomial
    of multiplication by g in Q(i)[[t]][sigma] / (sigma^n - a), so c_k is
    (-1)^k times the k-th elementary symmetric function of g's n conjugates.
    Faddeev-LeVerrier in the ring: m_0 = 0, m_k = g m_(k-1) + c_(k-1) and
    c_k = -tr(g m_k) / k, where tr h = n h_0 (sigma^j has trace 0 for 0 < j < n)."""
    zero, coeffs, gm = _Series({}, a.prec), [_Series.of({0: ONE}, a.prec)], {}
    for k in range(1, n + 1):
        if coeffs[-1]:  # then m_k has a nonzero sigma^0 coefficient
            gm = {**gm, 0: gm.get(0, zero) + coeffs[-1]}
        gm = _ring_mul(g, gm, a, n)
        coeffs.append(gm.get(0, zero).scaled(GR(Fraction(-n, k))))
    return coeffs


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
    valuation v (its coefficients come with the sign (-1)^k, and only their
    valuations are read), and each must satisfy v < T1 + 1 (a tail of the other
    branch) and v < (T2 + 1) m / n (a tail of the ring branch, with
    m = ord x1).  Otherwise IndeterminateWithinTruncation is raised, as it
    is for identical jets.  The working precision starts just above the
    valuation the leading terms give and doubles up to what these bounds
    need (at most the ``WORK_LIMITS`` precision); no term beyond it is read.
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
    check_limit("ring multiplicity", n)
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
    prec = min(cap - 1, min(y2, default=cap) * m, n * min(y1, default=cap)) + 1
    while True:
        top = n * ((prec - 1) // m + 1) - 1
        coeffs = _characteristic_polynomial(
            *_norm_element(x1, y1, _reparametrised(x2, y2, n, top), n, x2[n], prec), n
        )
        total = coeffs[n].ord()
        if total is not None:
            break
        if prec >= cap:
            raise IndeterminateWithinTruncation(
                f"the local norm vanishes to order {prec}: the branches agree "
                "beyond what the stored jets determine"
            )
        check_limit("precision", prec + 1, order=prec)
        prec = min(2 * prec, cap, WORK_LIMITS["precision"][0])
    for k in range(n):
        low = coeffs[k].ord()
        if low is None:
            continue
        rise, width = total - low, n - k
        if rise >= width * (t1 + 1) or rise * n >= width * (t2 + 1) * m:
            raise IndeterminateWithinTruncation(
                f"a conjugate factor has valuation {Fraction(rise, width)}, which a "
                f"tail beyond truncation orders {t1}, {t2} can change"
            )
    return total
