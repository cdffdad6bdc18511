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
from dataclasses import dataclass
from math import gcd
from typing import Iterable, Iterator, Sequence

from pseudocurve.errors import InvalidCuspType


@dataclass(frozen=True, slots=True)
class CuspType:
    """Critical exponents ``p_0 < p_1 < ... < p_l`` of a singular branch."""

    exponents: tuple[int, ...]

    def __post_init__(self) -> None:
        try:
            exponents = tuple(map(operator.index, self.exponents))
        except TypeError:
            raise InvalidCuspType(f"not integers: {self.exponents!r}") from None
        object.__setattr__(self, "exponents", exponents)
        if not validate_cusp_type(self.exponents):
            raise InvalidCuspType(f"{list(self.exponents)} is not a cusp type")

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

    @property
    def length_l(self) -> int:
        """The index l in (p_0, ..., p_l)."""
        return len(self.exponents) - 1

    def to_json(self) -> dict:
        return {"exponents": list(self.exponents)}

    @classmethod
    def from_json(cls, payload: dict) -> "CuspType":
        return cls(tuple(payload["exponents"]))


@dataclass(frozen=True)
class DivisorSequence:
    """Running gcds ``d_i = gcd(p_0, ..., p_i)`` of a cusp type."""

    divisors: tuple[int, ...]


@dataclass(frozen=True)
class AdmissibleExponentData:
    """All admissible exponents of a cusp type, with divisors and criticality.

    ``exponents[j]`` is critical iff ``j == 0`` or ``divisors[j] <
    divisors[j-1]``; the critical ones are exactly the original cusp type.
    """

    exponents: tuple[int, ...]
    divisors: tuple[int, ...]
    critical_mask: tuple[bool, ...]

    @property
    def length_lprime(self) -> int:
        """The index l' in (p'_0, ..., p'_{l'})."""
        return len(self.exponents) - 1


def validate_cusp_type(exponents: Sequence[int]) -> bool:
    """True iff the sequence is strictly increasing with strict gcd drops
    ending at 1."""
    if not exponents or any(p <= 0 for p in exponents):
        return False
    d = exponents[0]
    prev = None
    for i, p in enumerate(exponents):
        if prev is not None:
            if p <= prev:
                return False
            d_next = gcd(d, p)
            if d_next >= d:
                return False
            d = d_next
        prev = p
    return d == 1


def divisor_sequence(p: Iterable[int]) -> DivisorSequence:
    divisors = []
    d = 0
    for q in p:
        d = gcd(d, q)
        divisors.append(d)
    return DivisorSequence(tuple(divisors))


def admissible_exponents(p: CuspType) -> AdmissibleExponentData:
    """Insert the non-critical exponents ``p_i + j*d_i`` between critical ones.

    Between ``p_i`` and ``p_{i+1}`` there are exactly
    ``floor((p_{i+1} - p_i) / d_i)`` non-critical admissible exponents; the
    final exponent ``p_l`` closes the list.
    """
    ps = p.exponents
    ds = divisor_sequence(p).divisors
    exponents: list[int] = []
    for i in range(len(ps) - 1):
        count = (ps[i + 1] - ps[i]) // ds[i]
        exponents.extend(ps[i] + j * ds[i] for j in range(count + 1))
    exponents.append(ps[-1])
    exponents.sort()

    divisors = divisor_sequence(exponents).divisors
    mask = tuple(
        j == 0 or divisors[j] < divisors[j - 1] for j in range(len(exponents))
    )
    return AdmissibleExponentData(tuple(exponents), divisors, mask)


def nodal_number_formula(p: CuspType) -> int:
    """The combinatorial count ``sum (d_{i-1} - d_i) * (p_i - 1)``.

    Note this equals *twice* the semigroup-gap count delta; see
    :func:`nodal_number`.  Both conventions are exposed on purpose and the
    factor two is asserted, never silently fixed.
    """
    ds = divisor_sequence(p).divisors
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
    ds = divisor_sequence(p).divisors
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
    apery: list[int | None] = [0] + [None] * (m - 1)
    for g in gens:
        step = g % m
        if not step:
            continue
        cycles = gcd(step, m)
        for start in range(cycles):
            r, carried = start, None
            for _ in range(2 * m // cycles):
                if carried is not None and (apery[r] is None or carried < apery[r]):
                    apery[r] = carried
                carried = None if apery[r] is None else apery[r] + g
                r = (r + step) % m
    return sum(w // m for w in apery)


def bennequin_index(delta: int) -> int:
    """beta = 2*delta - 1 (transversal link invariant of the singularity)."""
    if delta < 0:
        raise ValueError("delta must be non-negative")
    return 2 * delta - 1


def smoothing_euler(chi: int, delta: int) -> int:
    """chi - 2*delta, invariant under splitting singular points into nodes."""
    return chi - 2 * delta


def reducible_delta(
    branch_deltas: Sequence[int], pairwise_intersections: Sequence[int]
) -> int:
    """Total delta of a reducible germ.

    Report helper, not a new formula: sum of branch deltas plus the sum of
    pairwise intersection multiplicities of distinct branches.
    """
    return sum(branch_deltas) + sum(pairwise_intersections)


def cusp_stratum_codim(n: int, k_tuple: Sequence[int], m: int) -> int:
    """Real codimension 2*(n*|k| - m) of the stratum with m marked cusps of
    orders k_i."""
    if n < 2:
        raise ValueError("ambient complex dimension must be >= 2")
    if m != len(k_tuple):
        raise ValueError("m must equal the number of marked cusp points")
    if any(k < 1 for k in k_tuple):
        raise ValueError("cusp orders must be >= 1")
    return 2 * (n * sum(k_tuple) - m)


def secondary_stratum_codim(n: int, l_tuple: Sequence[int]) -> int:
    """Real codimension 2*(n-1)*|l| for prescribed secondary cusp indices."""
    if n < 2:
        raise ValueError("ambient complex dimension must be >= 2")
    if any(l < 0 for l in l_tuple):
        raise ValueError("secondary indices must be >= 0")
    return 2 * (n - 1) * sum(l_tuple)


def cusp_type_stratum_codim(n: int, types: Sequence[CuspType]) -> int:
    """Real codimension 2*(n-1) * sum (p_last - p_0 - l') over the cusp types."""
    if n < 2:
        raise ValueError("ambient complex dimension must be >= 2")
    total = 0
    for p in types:
        lprime = admissible_exponents(p).length_lprime
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
