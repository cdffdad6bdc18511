"""Closed-form index, dimension, genus and feasibility calculators.

All indices are *real* dimensions (hence the overall factor 2); divide even
outputs by two for the complex convention.  Everything here is plain integer
arithmetic on homological data; no operator is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from pseudocurve.errors import GenusFormulaInconsistent, LineBundleOnly


@dataclass(frozen=True)
class CurveData:
    """Homological and topological record of a curve.

    n: complex dimension of the ambient manifold (>= 2)
    mu: pairing of the first Chern class with the curve class
    self_int: homological self-intersection of the curve class
    genera: one genus per component
    delta: geometric self-intersection count (nodes after perturbation)
    """

    n: int
    mu: int
    self_int: int
    genera: tuple[int, ...]
    delta: int = 0

    def __post_init__(self) -> None:
        if self.n < 2:
            raise ValueError("ambient complex dimension must be >= 2")
        if not self.genera or any(g < 0 for g in self.genera):
            raise ValueError("need one non-negative genus per component")
        if self.delta < 0:
            raise ValueError("delta must be non-negative")

    @property
    def components(self) -> int:
        return len(self.genera)

    @property
    def total_genus(self) -> int:
        return sum(self.genera)


@dataclass(frozen=True)
class BundleData:
    """A complex bundle over a closed surface: Chern number, rank, genus."""

    c1: int
    rank: int = 1
    genus: int = 0

    def __post_init__(self) -> None:
        if self.rank < 1:
            raise ValueError("rank must be >= 1")
        if self.genus < 0:
            raise ValueError("genus must be >= 0")


@dataclass(frozen=True)
class VanishingFlags:
    h0_zero: bool
    h1_zero: bool


@dataclass(frozen=True)
class ObstructionReport:
    obstructed: bool
    worst_count: int
    required: int
    worst_splitting: tuple[tuple[int, int], ...] = field(default=())


# ---------------------------------------------------------------------------
# genus formula
# ---------------------------------------------------------------------------

def genus_formula_check(c: CurveData) -> bool:
    """sum g_j == (self_int - mu)/2 + components - delta, exactly."""
    return 2 * c.total_genus == c.self_int - c.mu + 2 * c.components - 2 * c.delta


def genus_formula_solve(c: CurveData, unknown: str) -> int:
    """Solve the genus identity for one field; the rest of c is fixed.

    unknown is one of "mu", "self_int", "delta", "genus" (total genus).
    Raises GenusFormulaInconsistent when no integer solution exists.
    """
    d = c.components
    if unknown == "mu":
        return c.self_int + 2 * d - 2 * c.delta - 2 * c.total_genus
    if unknown == "self_int":
        return 2 * c.total_genus + c.mu - 2 * d + 2 * c.delta
    if unknown == "delta":
        num = c.self_int - c.mu + 2 * d - 2 * c.total_genus
    elif unknown == "genus":
        num = c.self_int - c.mu + 2 * d - 2 * c.delta
    else:
        raise ValueError(f"unknown field {unknown!r}")
    if num % 2:
        raise GenusFormulaInconsistent(
            f"no integer {unknown}: {num} is odd / 2"
        )
    return num // 2


# ---------------------------------------------------------------------------
# index formulas
# ---------------------------------------------------------------------------

def gromov_operator_index(mu: int, n: int, g: int) -> int:
    """Real index 2*(mu + n*(1-g)) of the linearized equation at a map."""
    if n < 1 or g < 0:
        raise ValueError("need n >= 1 and g >= 0")
    return 2 * (mu + n * (1 - g))


def d_cohomology_index(b: BundleData) -> int:
    """Real index 2*(c1 + rank*(1-g)) of a Cauchy-Riemann type operator."""
    return 2 * (b.c1 + b.rank * (1 - b.genus))


def vanishing_predicate(b: BundleData) -> VanishingFlags:
    """Line-bundle vanishing: h^0 = 0 if c1 < 0; h^1 = 0 if c1 > 2g - 2.

    Both flags may be false; the criterion is silent then.
    """
    if b.rank != 1:
        raise LineBundleOnly("the vanishing criterion needs a line bundle")
    return VanishingFlags(h0_zero=b.c1 < 0, h1_zero=b.c1 > 2 * b.genus - 2)


def moduli_projection_index(mu: int, n: int, g: int) -> int:
    """Real index 2*(mu + (n-3)*(1-g)) of the projection of the moduli space
    of parameterized curves to the space of structures."""
    return 2 * (mu + (n - 3) * (1 - g))


def marked_moduli_index(mu: int, n: int, g: int, m: int) -> int:
    """Index with m point constraints: 2*(mu + (n-3)*(1-g) - m)."""
    if m < 0:
        raise ValueError("marked point count must be >= 0")
    return 2 * (mu + (n - 3) * (1 - g) - m)


def h0_from_h1(mu: int, n: int, g: int, k_total: int, h1: int) -> int:
    """h^0 = h^1 + 2*(mu + (g-1)*(3-n) - |k|) along a cusp stratum.

    A negative return value signals that the stratum is empty; this is a
    valid answer, not an error.
    """
    return h1 + 2 * (mu + (g - 1) * (3 - n) - k_total)


def stratum_is_empty(mu: int, n: int, g: int, k_total: int, h1: int) -> bool:
    return h0_from_h1(mu, n, g, k_total, h1) < 0


def h1_stratum_codim(h0: int, h1: int) -> int:
    """Codimension h0*h1 of the locus with prescribed cokernel dimension."""
    if h0 < 0 or h1 < 0:
        raise ValueError("cohomology dimensions must be >= 0")
    return h0 * h1


@dataclass(frozen=True)
class CuspCountBounds:
    lower: int
    upper: int

    @property
    def contradictory(self) -> bool:
        """lower > upper: no critical points are possible."""
        return self.lower > self.upper


def cusp_count_bounds(mu: int, g: int, m: int = 0) -> CuspCountBounds:
    """Possible number of cusps on a critical curve: mu - m <= kappa <=
    mu - m + g - 1.  A contradictory range means no critical points (g = 0)
    or an empty relative moduli space (mu - m + g - 1 < 0)."""
    return CuspCountBounds(mu - m, mu - m + g - 1)


def teichmueller_dim(g: int) -> int:
    """Complex dimension of the space of marked complex structures."""
    if g < 0:
        raise ValueError("genus must be >= 0")
    if g == 0:
        return 0
    if g == 1:
        return 1
    return 3 * g - 3


# ---------------------------------------------------------------------------
# degree feasibility counts in the projective plane
# ---------------------------------------------------------------------------

def _point_capacity(degree: int) -> int:
    """Maximal number of generic fixed points a degree-d component can pass
    through: 3d - 1 + g_max = d(d+3)/2."""
    return degree * (degree + 3) // 2


def _worst_splitting(d: int) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(worst count, first worst splitting) of d by an unbounded knapsack.

    Layer k holds, per weight r, the best capacity sum over multisets of the
    first k + 1 pairs (deg, mult) in lexicographic order, with and without a
    multiplicity >= 2 still owed.  The rebuild takes the largest pair of an
    optimal splitting and goes on in that pair's layer: the first maximum of
    the non-increasing enumeration, so d = 3 gives ((1, 2), (1, 1)).
    """
    pairs = [(deg, mult) for deg in range(1, d + 1) for mult in range(1, d // deg + 1)]
    unreachable = float("-inf")
    free, owed, layers = [0] + [unreachable] * d, [unreachable] * (d + 1), []
    for deg, mult in pairs:
        weight, gain = deg * mult, _point_capacity(deg)
        free, owed = free[:], owed[:]
        source = free if mult >= 2 else owed
        for r in range(weight, d + 1):
            if free[r - weight] + gain > free[r]:
                free[r] = free[r - weight] + gain
            if source[r - weight] + gain > owed[r]:
                owed[r] = source[r - weight] + gain
        layers.append((free, owed))
    if owed[d] == unreachable:
        return 0, ()
    splitting, top, r, owing = [], len(pairs) - 1, d, True
    while r:
        layer = layers[top]
        for top in range(top, -1, -1):
            deg, mult = pairs[top]
            weight, need = deg * mult, owing and mult < 2
            gain = _point_capacity(deg)
            if weight <= r and layer[need][r - weight] + gain == layer[owing][r]:
                break
        splitting.append((deg, mult))
        r, owing = r - weight, need
    return owed[d], tuple(splitting)


def cp2_multiple_component_obstruction(
    d: int, all_splittings: bool = False
) -> ObstructionReport:
    """Can a degree-d limit curve with a multiple component hold 3d-1 points?

    worst_count is the largest number of generic fixed points any splitting
    with a double component can carry (component capacities d_i(d_i+3)/2
    summed over distinct components); required is 3d - 1.  obstructed means
    worst_count < required: multiple components cannot occur for curves
    through 3d - 1 generic points.

    The worst case is the closed form (d-2)(d+1)/2 + 2, carried by a simple
    component of degree d - 2 plus a double line (a double line alone at
    d = 2; no splitting and count 0 at d = 1).  all_splittings=True checks
    it by an exhaustive dynamic program over all splittings instead.
    """
    if d < 1:
        raise ValueError("degree must be >= 1")
    required = 3 * d - 1
    if all_splittings:
        worst, worst_split = _worst_splitting(d)
    else:
        # The capacity d(d+3)/2 is convex (merging components of degrees a
        # and b gains ab points), so one simple component of degree d - 2
        # plus a double line is the worst case.
        if d >= 3:
            worst_split = ((d - 2, 1), (1, 2))
        else:
            worst_split = ((1, 2),) if d == 2 else ()
        worst = sum(_point_capacity(deg) for deg, _ in worst_split)
    return ObstructionReport(
        obstructed=worst < required,
        worst_count=worst,
        required=required,
        worst_splitting=worst_split,
    )


def cp2_smooth_curve(d: int) -> CurveData:
    """Homological data of a smooth degree-d plane curve."""
    if d < 1:
        raise ValueError("degree must be >= 1")
    g = (d - 1) * (d - 2) // 2
    return CurveData(n=2, mu=3 * d, self_int=d * d, genera=(g,), delta=0)
