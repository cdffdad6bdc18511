"""Cusp-type combinatorics against small-instance oracles."""

import heapq
import time
from itertools import product
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pseudocurve import cusps
from pseudocurve.cusps import CuspType
from pseudocurve.errors import InvalidCuspType

ENUM_BOUND = 30
ALL_TYPES = list(cusps.enumerate_cusp_types(ENUM_BOUND))
TYPES_60 = list(cusps.enumerate_cusp_types(60))


def sieve_gap_count(p):
    """Reference gap count: sieve the representable values, doubling the
    bound until p_0 consecutive ones show the conductor."""
    gens = cusps.semigroup_generators(p)
    if 1 in gens:
        return 0
    step = gens[0]
    bound = 2 * max(gens) + 2
    while True:
        reachable = [False] * (bound + 1)
        reachable[0] = True
        for g in gens:
            for v in range(g, bound + 1):
                if reachable[v - g]:
                    reachable[v] = True
        run = 0
        for v in range(bound + 1):
            run = run + 1 if reachable[v] else 0
            if run >= step:
                return sum(1 for w in range(1, v) if not reachable[w])
        bound *= 2


def test_validate_cusp_type():
    assert cusps.validate_cusp_type([2, 3])
    assert not cusps.validate_cusp_type([2, 4])  # gcd never reaches 1
    assert cusps.validate_cusp_type([4, 6, 7])
    assert not cusps.validate_cusp_type([4, 6, 8])
    assert not cusps.validate_cusp_type([3, 3])  # not increasing
    assert not cusps.validate_cusp_type([])
    assert not cusps.validate_cusp_type([0, 1])
    assert not cusps.validate_cusp_type([4, 6, 9, 11])  # gcd stalls at 1? no:
    # gcd chain 4,2,1,1 -- the last step does not drop, hence invalid


def _validate_by_loop(exponents):
    """Reference: the explicit running-gcd loop that validate_cusp_type
    replaced by divisor_sequence and critical_mask."""
    if not exponents or any(p <= 0 for p in exponents):
        return False
    d = exponents[0]
    prev = None
    for p in exponents:
        if prev is not None:
            if p <= prev:
                return False
            d_next = gcd(d, p)
            if d_next >= d:
                return False
            d = d_next
        prev = p
    return d == 1


def test_validate_cusp_type_equals_the_loop_exhaustively():
    tuples = [t for length in range(5) for t in product(range(-1, 13), repeat=length)]
    assert len(tuples) == 41371
    for exponents in tuples:
        assert cusps.validate_cusp_type(exponents) == _validate_by_loop(exponents), exponents


@pytest.mark.parametrize(
    "divisors,mask",
    [
        ((), ()),
        ((1,), (True,)),
        ((4, 2, 1), (True, True, True)),
        ((6, 3, 3, 1), (True, True, False, True)),
        ((2, 2, 2), (True, False, False)),
    ],
)
def test_critical_mask(divisors, mask):
    assert cusps.critical_mask(divisors) == mask


def test_invalid_type_raises():
    with pytest.raises(InvalidCuspType):
        CuspType((2, 4))
    # non-integers are rejected, not truncated to the valid type (2, 3)
    for exponents in [(2.5, 3.9), (2.0, 3), (2, "3")]:
        with pytest.raises(InvalidCuspType):
            CuspType(exponents)


@pytest.mark.parametrize(
    "exponents,divisors",
    [((2, 3), (2, 1)), ((4, 6, 7), (4, 2, 1)), ((6, 9, 13), (6, 3, 1))],
)
def test_divisor_sequence(exponents, divisors):
    assert cusps.divisor_sequence(CuspType(exponents)) == divisors


def test_divisor_sequence_monotone_ends_at_one():
    for p in ALL_TYPES:
        ds = cusps.divisor_sequence(p)
        assert ds[0] == p.p0
        assert all(ds[i] > ds[i + 1] for i in range(len(ds) - 1))
        assert ds[-1] == 1


@pytest.mark.parametrize(
    "exponents,admissible,lprime",
    [((2, 3), (2, 3), 1), ((2, 5), (2, 4, 5), 2), ((4, 6, 7), (4, 6, 7), 2)],
)
def test_admissible_exponents_examples(exponents, admissible, lprime):
    data = cusps.admissible_exponents(CuspType(exponents))
    assert data == admissible
    assert len(data) - 1 == lprime


def test_admissible_exponents_refuse_a_list_above_the_ceiling():
    # (2, 2N - 1) has N admissible exponents; cusp prints each with its
    # divisor and mask bit, 1.7 MB at the ceiling N = 10^5
    assert len(cusps.admissible_exponents(CuspType((2, 199999)))) == 10**5
    start = time.perf_counter()
    for big in (10**5 + 1, 10**16, 10**400):
        with pytest.raises(ValueError, match="at most 100000 admissible exponents"):
            cusps.admissible_exponents(CuspType((2, 2 * big - 1)))
    assert time.perf_counter() - start < 0.5


def test_admissible_exponent_properties_exhaustive():
    for p in ALL_TYPES:
        ps = p.exponents
        ds = cusps.divisor_sequence(p)
        data = cusps.admissible_exponents(p)
        divisors = cusps.divisor_sequence(data)
        mask = cusps.critical_mask(divisors)
        # count identity
        expected_lprime = len(ps) - 1 + sum(
            (ps[i + 1] - ps[i]) // ds[i] for i in range(len(ps) - 1)
        )
        assert len(data) - 1 == expected_lprime
        # criticality: admissible exponent > p'_0 is critical iff its divisor drops
        critical = [data[j] for j in range(len(data)) if mask[j]]
        assert tuple(critical) == ps
        # no inserted exponent collides with the next critical one
        assert len(set(data)) == len(data)
        # divisors of the admissible sequence are the d_i, repeated
        assert set(divisors) == set(ds)


def test_inserted_exponents_never_hit_next_critical():
    # p_{i+1} is never a multiple of d_i, so p_i + j*d_i != p_{i+1}
    for p in ALL_TYPES:
        ps = p.exponents
        ds = cusps.divisor_sequence(p)
        for i in range(len(ps) - 1):
            assert ps[i + 1] % ds[i] != 0


@pytest.mark.parametrize(
    "exponents,formula", [((2, 3), 2), ((2, 5), 4), ((4, 6, 7), 16)]
)
def test_nodal_number_formula_examples(exponents, formula):
    assert cusps.nodal_number_formula(CuspType(exponents)) == formula


@pytest.mark.parametrize(
    "exponents,gaps", [((2, 3), 1), ((2, 5), 2), ((2, 7), 3)]
)
def test_nodal_number_oracle_examples(exponents, gaps):
    assert cusps.nodal_number_oracle(CuspType(exponents)) == gaps


def test_two_generator_gap_count_closed_form():
    # for coprime p < q the gap count of <p, q> is (p-1)(q-1)/2
    for p0 in range(2, 12):
        for p1 in range(p0 + 1, 31):
            if gcd(p0, p1) != 1:
                continue
            p = CuspType((p0, p1))
            assert cusps.nodal_number_oracle(p) == (p0 - 1) * (p1 - 1) // 2


def test_formula_is_twice_the_gap_count_exhaustive():
    for p in ALL_TYPES:
        assert cusps.nodal_number_formula(p) == 2 * cusps.nodal_number_oracle(p)
        assert cusps.nodal_number(p) == cusps.nodal_number_oracle(p)


def test_apery_count_matches_sieve_exhaustive():
    for p in ALL_TYPES:
        assert cusps.nodal_number_oracle(p) == sieve_gap_count(p)


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(TYPES_60))
def test_apery_count_matches_sieve(p):
    assert cusps.nodal_number_oracle(p) == sieve_gap_count(p)


def test_apery_cost_follows_the_smallest_generator():
    # <2, 2k+1> has k gaps; the Apery set mod 2 has two elements, while a
    # residue table modulo the larger generator would hold 2k+1 entries
    k = 10**6
    start = time.perf_counter()
    assert cusps.nodal_number_oracle(CuspType((2, 2 * k + 1))) == k
    assert time.perf_counter() - start < 0.2


def test_semigroup_generators_examples():
    assert cusps.semigroup_generators(CuspType((2, 3))) == (2, 3)
    assert cusps.semigroup_generators(CuspType((4, 6, 7))) == (4, 6, 13)
    assert cusps.semigroup_generators(CuspType((6, 9, 13))) == (6, 9, 22)


def apery_set(gens):
    """Least element of the semigroup <gens> in each residue class modulo the
    smallest generator m: shortest paths on Z/m, each step adding one
    generator (Dijkstra)."""
    m = min(gens)
    best = [0] + [None] * (m - 1)
    heap = [(0, 0)]
    while heap:
        w, r = heapq.heappop(heap)
        if w > best[r]:
            continue
        for g in gens:
            s = (r + g) % m
            if best[s] is None or w + g < best[s]:
                best[s] = w + g
                heapq.heappush(heap, (w + g, s))
    return best


GORENSTEIN_TYPES = list(cusps.enumerate_cusp_types(40))


def test_value_semigroups_are_symmetric_with_conductor_two_delta():
    # a plane branch has a symmetric value semigroup (Kunz 1970), so its
    # Frobenius number F is 2 delta - 1, which is also the Bennequin index
    assert len(GORENSTEIN_TYPES) == 2186
    for p in GORENSTEIN_TYPES:
        gens = cusps.semigroup_generators(p)
        apery = apery_set(gens)
        top = max(apery)
        frobenius = top - min(gens)
        delta = cusps.nodal_number(p)
        assert frobenius + 1 == 2 * delta, p
        assert {top - w for w in apery} == set(apery), p
        assert cusps.bennequin_index(delta) == frobenius, p


def test_bennequin_index():
    assert cusps.bennequin_index(1) == 1  # trefoil / ordinary cusp
    assert cusps.bennequin_index(0) == -1
    assert cusps.bennequin_index(8) == 15
    with pytest.raises(ValueError):
        cusps.bennequin_index(-1)


@pytest.mark.parametrize(
    "n,k,expected",
    [(2, (1,), 2), (2, (1, 1), 4), (3, (2,), 10)],
)
def test_cusp_stratum_codim(n, k, expected):
    assert cusps.cusp_stratum_codim(n, k) == expected


def test_cusp_stratum_codim_validation():
    with pytest.raises(ValueError):
        cusps.cusp_stratum_codim(1, (1,))
    with pytest.raises(ValueError, match="cusp orders must be >= 1"):
        cusps.cusp_stratum_codim(2, (1, 0))
    with pytest.raises(ValueError, match="ambient complex dimension must be >= 2"):
        cusps.cusp_type_stratum_codim(1, (CuspType((2, 3)),))


@pytest.mark.parametrize(
    "n,types,expected",
    [
        (2, ((2, 3),), 0),
        (2, ((2, 5),), 2),
        (3, ((4, 6, 7),), 4),
    ],
)
def test_cusp_type_stratum_codim(n, types, expected):
    parsed = tuple(CuspType(t) for t in types)
    assert cusps.cusp_type_stratum_codim(n, parsed) == expected


def test_codimensions_even_and_nonnegative():
    for p in ALL_TYPES[:200]:
        for n in (2, 3, 4):
            c = cusps.cusp_type_stratum_codim(n, (p,))
            assert c >= 0 and c % 2 == 0
            if p.p0 >= 2:
                c2 = cusps.cusp_stratum_codim(n, (p.p0 - 1,))
                assert c2 >= 0 and c2 % 2 == 0


def test_enumeration_counts():
    assert [list(t.exponents) for t in cusps.enumerate_cusp_types(5)] == [
        [1],
        [2, 3],
        [2, 5],
        [3, 4],
        [3, 5],
        [4, 5],
    ]
    # the exhaustive bound used throughout the suite
    assert len(ALL_TYPES) == 777
