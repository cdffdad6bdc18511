"""Closed-form index, dimension, genus and feasibility calculators.

All indices are *real* dimensions (hence the overall factor 2); divide even
outputs by two for the complex convention.  Everything here is plain integer
arithmetic on homological data; no operator is ever built.
"""

from __future__ import annotations

from pseudocurve.errors import GenusFormulaInconsistent, _Value, check_limit

# Formula anchors quoted by the verify certificates and the CLI payloads.
ANCHOR_FEASIBILITY = "max over splittings of sum d_i(d_i+3)/2 vs required 3d - 1"
ANCHOR_GENUS = "g = (d-1)(d-2)/2 from 2g = q - mu + 2 - 2*delta"
ANCHOR_INDEX = "index = 2(mu + (n-3)(1-g) - m)"


class CurveData(_Value):
    """Homological and topological record of a curve.

    mu: pairing of the first Chern class with the curve class
    self_int: homological self-intersection of the curve class
    genera: one genus per component
    delta: geometric self-intersection count (nodes after perturbation)
    """

    __slots__ = ("mu", "self_int", "genera", "delta")

    def __init__(
        self, mu: int, self_int: int, genera: tuple[int, ...], delta: int = 0
    ) -> None:
        if not genera or any(g < 0 for g in genera):
            raise ValueError("need one non-negative genus per component")
        if delta < 0:
            raise ValueError("delta must be non-negative")
        super().__init__(mu, self_int, genera, delta)

    @property
    def components(self) -> int:
        return len(self.genera)

    @property
    def total_genus(self) -> int:
        return sum(self.genera)


class ObstructionReport(_Value):
    """Fields, in order: obstructed (worst_count < required), worst_count
    (the most generic points a splitting with a double component carries),
    required (3d - 1) and worst_splitting (that splitting, as (degree,
    multiplicity) pairs)."""

    __slots__ = ("obstructed", "worst_count", "required", "worst_splitting")


# ---------------------------------------------------------------------------
# genus formula
# ---------------------------------------------------------------------------

def genus_formula_check(c: CurveData) -> bool:
    """sum g_j == (self_int - mu)/2 + components - delta, exactly."""
    return 2 * c.total_genus == c.self_int - c.mu + 2 * c.components - 2 * c.delta


def genus_formula_solve(c: CurveData) -> int:
    """Total genus from the genus identity (of c.genera only the count is
    read).  Raises GenusFormulaInconsistent when no integer genus exists."""
    num = c.self_int - c.mu + 2 * c.components - 2 * c.delta
    if num % 2:
        raise GenusFormulaInconsistent(f"no integer genus: {num} is odd / 2")
    return num // 2


# ---------------------------------------------------------------------------
# index formulas
# ---------------------------------------------------------------------------

def gromov_operator_index(mu: int, n: int, g: int) -> int:
    """Real index 2*(mu + n*(1-g)) of the linearized equation at a map."""
    if n < 1 or g < 0:
        raise ValueError("need n >= 1 and g >= 0")
    return 2 * (mu + n * (1 - g))


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
    valid answer, not an error.  A negative h1 is an error.
    """
    if h1 < 0:
        raise ValueError("cohomology dimensions must be >= 0")
    return h1 + 2 * (mu + (g - 1) * (3 - n) - k_total)


def h1_stratum_codim(h0: int, h1: int) -> int:
    """Codimension h0*h1 of the locus with prescribed cokernel dimension."""
    if h0 < 0 or h1 < 0:
        raise ValueError("cohomology dimensions must be >= 0")
    return h0 * h1


class CuspCountBounds(_Value):
    """Fields, in order: lower and upper, the bounds on the number of cusps."""

    __slots__ = ("lower", "upper")

    @property
    def contradictory(self) -> bool:
        """lower > upper: no critical points are possible."""
        return self.lower > self.upper


def cusp_count_bounds(mu: int, g: int, m: int) -> CuspCountBounds:
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

    free[r] and owed[r] hold the best capacity sum over multisets of pairs
    (deg, mult) of weight r, without and with a multiplicity >= 2 required.
    The rebuild takes the largest pair (lexicographic) that begins an optimal
    rest, best[need][r - w] + cap(deg) == best[owing][r].  The picks never
    rise: a larger pair that fits an optimal rest after the current pick fits
    one step earlier too (with the current pick in its rest), and would have
    been taken there.  So the rebuild is the first maximum of the
    non-increasing enumeration: d = 3 gives ((1, 2), (1, 1)).
    """
    pairs = [(deg, mult) for deg in range(1, d + 1) for mult in range(1, d // deg + 1)]
    unreachable = float("-inf")
    best = free, owed = [0] + [unreachable] * d, [unreachable] * (d + 1)
    for deg, mult in pairs:
        weight, gain = deg * mult, _point_capacity(deg)
        source = free if mult >= 2 else owed
        for r in range(weight, d + 1):
            if free[r - weight] + gain > free[r]:
                free[r] = free[r - weight] + gain
            if source[r - weight] + gain > owed[r]:
                owed[r] = source[r - weight] + gain
    if owed[d] == unreachable:
        return 0, ()
    splitting, r, owing = [], d, True
    while r:
        for deg, mult in reversed(pairs):
            weight, need, gain = deg * mult, owing and mult < 2, _point_capacity(deg)
            if weight <= r and best[need][r - weight] + gain == best[owing][r]:
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
        check_limit("all-splittings degree", d)
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
    return CurveData(mu=3 * d, self_int=d * d, genera=(g,), delta=0)
