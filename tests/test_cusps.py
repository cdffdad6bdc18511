"""Cusp-type combinatorics against small-instance oracles."""

import time
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
    assert cusps.divisor_sequence(CuspType(exponents)).divisors == divisors


def test_divisor_sequence_monotone_ends_at_one():
    for p in ALL_TYPES:
        ds = cusps.divisor_sequence(p).divisors
        assert ds[0] == p.p0
        assert all(ds[i] > ds[i + 1] for i in range(len(ds) - 1))
        assert ds[-1] == 1


@pytest.mark.parametrize(
    "exponents,admissible,lprime",
    [((2, 3), (2, 3), 1), ((2, 5), (2, 4, 5), 2), ((4, 6, 7), (4, 6, 7), 2)],
)
def test_admissible_exponents_examples(exponents, admissible, lprime):
    data = cusps.admissible_exponents(CuspType(exponents))
    assert data.exponents == admissible
    assert data.length_lprime == lprime


def test_admissible_exponent_properties_exhaustive():
    for p in ALL_TYPES:
        ps = p.exponents
        ds = cusps.divisor_sequence(p).divisors
        data = cusps.admissible_exponents(p)
        # count identity
        expected_lprime = p.length_l + sum(
            (ps[i + 1] - ps[i]) // ds[i] for i in range(len(ps) - 1)
        )
        assert data.length_lprime == expected_lprime
        # criticality: admissible exponent > p'_0 is critical iff its divisor drops
        critical = [
            data.exponents[j]
            for j in range(len(data.exponents))
            if data.critical_mask[j]
        ]
        assert tuple(critical) == ps
        # no inserted exponent collides with the next critical one
        assert len(set(data.exponents)) == len(data.exponents)
        # divisors of the admissible sequence are the d_i, repeated
        assert set(data.divisors) == set(ds)


def test_inserted_exponents_never_hit_next_critical():
    # p_{i+1} is never a multiple of d_i, so p_i + j*d_i != p_{i+1}
    for p in ALL_TYPES:
        ps = p.exponents
        ds = cusps.divisor_sequence(p).divisors
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


def test_bennequin_index():
    assert cusps.bennequin_index(1) == 1  # trefoil / ordinary cusp
    assert cusps.bennequin_index(0) == -1
    assert cusps.bennequin_index(8) == 15
    with pytest.raises(ValueError):
        cusps.bennequin_index(-1)


def test_smoothing_euler():
    assert cusps.smoothing_euler(1, 1) == -1  # disc with one node
    assert cusps.smoothing_euler(2, 0) == 2  # smooth sphere
    assert cusps.smoothing_euler(1, 0) == 1  # smooth disc


def test_reducible_delta():
    # two ordinary cusps meeting transversally
    assert cusps.reducible_delta([1, 1], [2]) == 4
    assert cusps.reducible_delta([], []) == 0


@pytest.mark.parametrize(
    "n,k,m,expected",
    [(2, (1,), 1, 2), (2, (1, 1), 2, 4), (3, (2,), 1, 10)],
)
def test_cusp_stratum_codim(n, k, m, expected):
    assert cusps.cusp_stratum_codim(n, k, m) == expected


def test_cusp_stratum_codim_validation():
    with pytest.raises(ValueError):
        cusps.cusp_stratum_codim(2, (1, 1), 1)
    with pytest.raises(ValueError):
        cusps.cusp_stratum_codim(1, (1,), 1)


@pytest.mark.parametrize(
    "n,l,expected", [(2, (0,), 0), (2, (1,), 2), (3, (1, 2), 12)]
)
def test_secondary_stratum_codim(n, l, expected):
    assert cusps.secondary_stratum_codim(n, l) == expected


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
                c2 = cusps.cusp_stratum_codim(n, (p.p0 - 1,), 1)
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
