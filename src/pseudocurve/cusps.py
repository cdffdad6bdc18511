"""Integer combinatorics of cusp types.

A cusp type is a strictly increasing sequence of positive critical exponents
``p_0 < p_1 < ... < p_l`` whose running gcds ``d_i = gcd(p_0, ..., p_i)``
drop strictly at every step and end at ``d_l = 1``.  Everything in this
module is exact integer arithmetic: divisor sequences, admissible exponents,
nodal numbers (two conventions, see :func:`nodal_number_formula`), the
Bennequin index, and the codimension counts for strata of curves with
prescribed cusps.
"""

from __future__ import annotations

import operator
from itertools import accumulate
from math import gcd
from typing import Iterable, Iterator, Sequence

from pseudocurve.errors import InvalidCuspType, _set_field, _Value

# Formula anchors quoted by the verify certificates and the CLI payloads.
ANCHOR_DELTA = "sum (d_{i-1} - d_i)(p_i - 1) = 2 * (semigroup gap count)"

_MAX_ADMISSIBLE = 10**5  # work ceiling: cusp prints each admissible exponent and divisor


class CuspType(_Value):
    """Critical exponents ``p_0 < p_1 < ... < p_l`` of a singular branch."""

    __slots__ = ("exponents",)

    def __init__(self, exponents: Sequence[int]) -> None:
        try:
            exponents = tuple(map(operator.index, exponents))
        except TypeError:
            raise InvalidCuspType(f"not integers: {exponents!r}") from None
        if not validate_cusp_type(exponents):
            raise InvalidCuspType(f"{list(exponents)} is not a cusp type")
        _set_field(self, "exponents", exponents)

    def __iter__(self):
        return iter(self.exponents)

    def __len__(self) -> int:
        return len(self.exponents)

    @property
    def p0(self) -> int:
        return self.exponents[0]

    @property
    def p_last(self) -> int:
        return self.exponents[-1]


def divisor_sequence(p: Iterable[int]) -> tuple[int, ...]:
    """Running gcds ``d_i = gcd(p_0, ..., p_i)``."""
    return tuple(accumulate(p, gcd))


def critical_mask(divisors: Sequence[int]) -> tuple[bool, ...]:
    """Position j is critical iff j == 0 or the running gcd drops there."""
    return (True, *map(operator.gt, divisors, divisors[1:])) if divisors else ()


def validate_cusp_type(exponents: Sequence[int]) -> bool:
    """True iff the first exponent is positive, the sequence strictly
    increases, every position is critical and the last gcd is 1."""
    if not exponents or exponents[0] <= 0:
        return False
    divisors = divisor_sequence(exponents)
    return (
        divisors[-1] == 1
        and all(map(operator.lt, exponents, exponents[1:]))
        and all(critical_mask(divisors))
    )


def admissible_exponents(p: CuspType) -> tuple[int, ...]:
    """Insert the non-critical exponents ``p_i + j*d_i`` between critical ones.

    Between ``p_i`` and ``p_{i+1}`` there are exactly
    ``floor((p_{i+1} - p_i) / d_i)`` non-critical admissible exponents; the
    final exponent ``p_l`` closes the list.  The result ``(p'_0, ..., p'_{l'})``
    has :func:`critical_mask` of its :func:`divisor_sequence` true exactly at
    the original cusp type.  A list longer than 10^5 is refused.
    """
    ps = p.exponents
    ds = divisor_sequence(p)
    counts = [(ps[i + 1] - ps[i]) // ds[i] for i in range(len(ps) - 1)]
    length = sum(counts) + len(ps)
    if length > _MAX_ADMISSIBLE:
        raise ValueError(f"at most {_MAX_ADMISSIBLE} admissible exponents, got {length}")
    exponents: list[int] = []
    for i, count in enumerate(counts):
        exponents.extend(ps[i] + j * ds[i] for j in range(count + 1))
    exponents.append(ps[-1])
    return tuple(exponents)


def nodal_number_formula(p: CuspType) -> int:
    """The combinatorial count ``sum (d_{i-1} - d_i) * (p_i - 1)``.

    Note this equals *twice* the semigroup-gap count delta; see
    :func:`nodal_number`.  Both conventions are exposed on purpose and the
    factor two is asserted, never silently fixed.
    """
    ds = divisor_sequence(p)
    ps = p.exponents
    return sum((ds[i - 1] - ds[i]) * (ps[i] - 1) for i in range(1, len(ps)))


def nodal_number(p: CuspType) -> int:
    """delta of the branch: half of :func:`nodal_number_formula`.

    This is the convention that satisfies ``beta = 2*delta - 1`` and agrees
    with the semigroup-gap oracle; the ordinary cusp has delta = 1.
    """
    twice = nodal_number_formula(p)
    if twice % 2:
        raise InvalidCuspType(f"odd combinatorial count {twice} for {p}")
    return twice // 2


def semigroup_generators(p: CuspType) -> tuple[int, ...]:
    """Minimal generators of the value semigroup of the monomial branch.

    Standard recursion: ``b_0 = p_0`` and
    ``b_{i+1} = (d_{i-1}/d_i) * b_i + p_{i+1} - p_i``.
    """
    ps = p.exponents
    ds = divisor_sequence(p)
    gens = [ps[0]]
    for i in range(len(ps) - 1):
        ratio = ds[i - 1] // ds[i] if i >= 1 else 1
        gens.append(ratio * gens[-1] + ps[i + 1] - ps[i])
    return tuple(gens)


def nodal_number_oracle(p: CuspType) -> int:
    """delta as the gap count of the value semigroup, from its Apery set.

    With m the smallest generator, w_r is the least semigroup element
    congruent to r mod m.  Round-robin relaxation finds every w_r (Boecker &
    Liptak 2007): a generator g splits the residues into gcd(g, m) cycles
    r -> r + g, and two rounds of a cycle settle it.  Selmer's formula
    (Rosales & Garcia-Sanchez, *Numerical Semigroups*, ch. 2) gives the gap
    count sum floor(w_r / m).  Independent of :func:`nodal_number_formula`.
    """
    gens = semigroup_generators(p)
    m = min(gens)
    unreached = m * max(gens)  # above every w_r, a sum of fewer than m generators
    apery = [0] + [unreached] * (m - 1)
    for g in gens:
        step = g % m
        if not step:
            continue
        cycles = gcd(step, m)
        for start in range(cycles):
            r, carried = start, unreached
            for _ in range(2 * m // cycles):
                if carried < apery[r]:
                    apery[r] = carried
                carried = apery[r] + g
                r = (r + step) % m
    return sum(w // m for w in apery)


def bennequin_index(delta: int) -> int:
    """beta = 2*delta - 1 (transversal link invariant of the singularity)."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return 2 * delta - 1


def cusp_stratum_codim(n: int, k_tuple: Sequence[int]) -> int:
    """Real codimension 2*(n*|k| - m) of the stratum with m = len(k_tuple)
    marked cusps of orders k_i."""
    if n < 2:
        raise ValueError("ambient complex dimension must be >= 2")
    if any(k < 1 for k in k_tuple):
        raise ValueError("cusp orders must be >= 1")
    return 2 * (n * sum(k_tuple) - len(k_tuple))


def cusp_type_stratum_codim(n: int, types: Sequence[CuspType]) -> int:
    """Real codimension 2*(n-1) * sum (p_last - p_0 - l') over the cusp types."""
    if n < 2:
        raise ValueError("ambient complex dimension must be >= 2")
    total = 0
    for p in types:
        lprime = len(admissible_exponents(p)) - 1
        total += p.p_last - p.p0 - lprime
    return 2 * (n - 1) * total


def enumerate_cusp_types(max_p_last: int) -> Iterator[CuspType]:
    """All valid cusp types with final exponent <= max_p_last, ascending."""

    def extend(prefix: list[int], d: int) -> Iterator[tuple[int, ...]]:
        if d == 1:
            yield tuple(prefix)
            return
        for q in range(prefix[-1] + 1, max_p_last + 1):
            d_next = gcd(d, q)
            if d_next < d:
                yield from extend(prefix + [q], d_next)

    for p0 in range(1, max_p_last + 1):
        for exps in extend([p0], p0):
            yield CuspType(exps)
