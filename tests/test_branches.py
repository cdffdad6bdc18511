"""Branch invariants: extraction, normal forms, intersections."""

import json
import math
import random
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from pseudocurve import branches, cusps
from pseudocurve.branches import Branch
from pseudocurve.cusps import CuspType
from pseudocurve.errors import (
    IndeterminateWithinTruncation,
    InvalidBranch,
    MultipleOrTruncatedBranch,
    NotPreparedBranch,
    TruncationTooShort,
)
from pseudocurve.gaussian import GaussianRational as GR


def mk(x_terms, y_terms, truncation=None):
    return Branch.from_coordinates([x_terms, y_terms], truncation)


# ---------------------------------------------------------------------------
# construction and basic invariants
# ---------------------------------------------------------------------------

def test_construction_validates():
    with pytest.raises(InvalidBranch):
        Branch(2, (), 5)  # empty
    with pytest.raises(InvalidBranch):
        Branch(1, ((1, (GR.of(1),)),), 5)  # ambient dim too small
    with pytest.raises(InvalidBranch):
        Branch(2, ((3, (GR.of(1), GR.of(0))), (2, (GR.of(0), GR.of(1)))), 5)
    with pytest.raises(InvalidBranch):
        Branch(2, ((2, (GR.of(0), GR.of(0))),), 5)  # zero vector
    with pytest.raises(InvalidBranch):
        Branch(2, ((7, (GR.of(1), GR.of(0))),), 5)  # beyond truncation
    # non-integers are rejected, not truncated to exponents 2, 3 and order 3
    x, y = (GR.of(1), GR.of(0)), (GR.of(0), GR.of(1))
    with pytest.raises(InvalidBranch):
        Branch(2, ((2.7, x), (3.2, y)), 3.5)
    with pytest.raises(InvalidBranch):
        Branch(2.0, ((2, x), (3, y)), 3)
    with pytest.raises(InvalidBranch):
        Branch(2, ((2, x), (3, y)), 3.0)
    with pytest.raises(InvalidBranch):
        Branch.from_coordinates([{2.9: 1}, {3.1: 1}])
    with pytest.raises(InvalidBranch):
        Branch.from_coordinates([{2: 1}, {3: 1}], 3.5)


def test_json_roundtrip():
    b = mk({2: (1, 0)}, {3: "1/2", 5: (0, "2/3")}, 6)
    payload = json.loads(json.dumps(b.to_json()))
    assert Branch.from_json(payload) == b
    # schema details: quads of decimal strings, ascending exponents
    exps = [item["exp"] for item in payload["terms"]]
    assert exps == sorted(exps)
    assert payload["terms"][1]["coeff"][1] == ["1", "2", "0", "1"]


_rationals = st.builds(Fraction, st.integers(-1000, 1000), st.integers(1, 50))
gaussians = st.builds(GR.of, _rationals, _rationals)


_vectors = {n: st.lists(gaussians, min_size=n, max_size=n).filter(any) for n in (2, 3, 4)}
_exponents = st.sets(st.integers(1, 20), min_size=1, max_size=6)


@st.composite
def branches_(draw):
    n = draw(st.integers(2, 4))
    exps = sorted(draw(_exponents))
    terms = tuple((e, tuple(draw(_vectors[n]))) for e in exps)
    return Branch(n, terms, exps[-1] + draw(st.integers(0, 5)))


@settings(max_examples=150, deadline=None)
@given(branches_())
def test_json_roundtrip_property(b):
    assert Branch.from_json(json.loads(json.dumps(b.to_json()))) == b


ONE, ZERO = ["1", "1", "0", "1"], ["0", "1", "0", "1"]


@pytest.mark.parametrize(
    "payload",
    [
        # zero denominator in the real part
        {"ambient_dim": 2, "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [["1", "0", "0", "1"], ZERO]}]},
        # zero denominator in the imaginary part
        {"ambient_dim": 2, "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [ONE, ["0", "1", "1", "0"]]}]},
        {"ambient_dim": 2, "truncation_order": 3, "terms": [{"exp": 2}]},
        {"ambient_dim": 2, "truncation_order": 3, "terms": [{"coeff": [ONE, ZERO]}]},
        {"ambient_dim": 2, "truncation_order": 3},
        {"ambient_dim": 2, "terms": [{"exp": 2, "coeff": [ONE, ZERO]}]},
        {"ambient_dim": 2, "truncation_order": 3, "terms": 5},
        {"ambient_dim": 2, "truncation_order": 3, "terms": [7]},
        {"ambient_dim": 2, "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [["1", "1", "0"], ZERO]}]},
        {"ambient_dim": "two", "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [ONE, ZERO]}]},
        {"ambient_dim": 2, "truncation_order": None,
         "terms": [{"exp": 2, "coeff": [ONE, ZERO]}]},
        [2, 3],
        "branch",
        None,
        # numbers that are not integers are rejected, not truncated
        {"ambient_dim": 2.9, "truncation_order": 3.7,
         "terms": [{"exp": 2.2, "coeff": [ONE, ZERO]}]},
        {"ambient_dim": 2.9, "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [ONE, ZERO]}]},
        {"ambient_dim": 2, "truncation_order": 3.7,
         "terms": [{"exp": 2, "coeff": [ONE, ZERO]}]},
        {"ambient_dim": 2, "truncation_order": 3,
         "terms": [{"exp": 2.2, "coeff": [ONE, ZERO]}]},
        {"ambient_dim": 2, "truncation_order": 3,
         "terms": [{"exp": True, "coeff": [ONE, ZERO]}]},
        {"ambient_dim": 2, "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [[1.5, "1", "0", "1"], ZERO]}]},
        {"ambient_dim": 2, "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [["1.5", "1", "0", "1"], ZERO]}]},
        {"ambient_dim": "2.0", "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [ONE, ZERO]}]},
    ],
)
def test_from_json_rejects_malformed_payloads(payload):
    with pytest.raises(InvalidBranch):
        Branch.from_json(payload)


def test_from_quad_rejects_zero_denominator():
    with pytest.raises(InvalidBranch):
        GR.from_quad(["1", "0", "0", "1"])
    with pytest.raises(InvalidBranch):
        GR.from_quad(["1", "1", "2", "0"])


@pytest.mark.parametrize(
    "quad",
    [[1.5, "1", "0", "1"], ["1", 2.0, "0", "1"], [True, "1", "0", "1"],
     ["1", "1", "0", " 1"], ["1e3", "1", "0", "1"], ["1", "1", None, "1"]],
)
def test_from_quad_rejects_non_integers(quad):
    with pytest.raises(InvalidBranch):
        GR.from_quad(quad)


def test_from_quad_reads_integers_and_decimal_strings():
    assert GR.from_quad([-3, "4", "+0", 1]) == GR.of(Fraction(-3, 4))


@pytest.mark.parametrize(
    "x,y,expected",
    [({2: 1}, {3: 1}, 2), ({1: 1}, {5: 1}, 1), ({4: 1}, {6: 1, 7: 1}, 4)],
)
def test_multiplicity(x, y, expected):
    assert branches.multiplicity(mk(x, y)) == expected


@pytest.mark.parametrize(
    "x,y,expected",
    [({1: 1}, {2: 1}, 0), ({2: 1}, {3: 1}, 1), ({4: 1}, {6: 1, 7: 1}, 3)],
)
def test_cusp_order(x, y, expected):
    assert branches.cusp_order(mk(x, y)) == expected


# ---------------------------------------------------------------------------
# preparation
# ---------------------------------------------------------------------------

def test_prepare_removes_multiples_of_the_multiplicity():
    # y carries removable terms at exponents 2 and 4 = multiples of mu = 2
    b = mk({2: 1}, {2: 3, 3: 1, 4: "1/2"}, 6)
    assert not branches.is_prepared(b)
    prepared = branches.prepare(b)
    assert branches.is_prepared(prepared)
    assert prepared.coordinate_support(1) == [3]
    assert branches.cusp_type_of_branch(prepared).exponents == (2, 3)


def test_prepare_requires_monomial_first_coordinate():
    b = mk({2: 1, 3: 1}, {3: 1}, 6)
    with pytest.raises(NotPreparedBranch):
        branches.prepare(b)
    with pytest.raises(NotPreparedBranch):
        branches.cusp_type_of_branch(b)


# ---------------------------------------------------------------------------
# cusp type extraction
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x,y,expected",
    [
        ({2: 1}, {3: 1}, (2, 3)),
        ({2: 1}, {4: 1, 5: 1}, (2, 5)),
        ({4: 1}, {6: 1, 7: 1}, (4, 6, 7)),
    ],
)
def test_cusp_type_examples(x, y, expected):
    assert branches.cusp_type_of_branch(mk(x, y)).exponents == expected


def test_multiple_branch_detected():
    with pytest.raises(MultipleOrTruncatedBranch):
        branches.cusp_type_of_branch(mk({4: 1}, {6: 1}, 8))


def test_roundtrip_exhaustive():
    for p in cusps.enumerate_cusp_types(30):
        model = branches.branch_from_cusp_type(p)
        assert branches.cusp_type_of_branch(model).exponents == p.exponents


def test_monomial_models():
    assert branches.branch_from_cusp_type(CuspType((2, 3))) == mk({2: 1}, {3: 1}, 3)
    assert branches.branch_from_cusp_type(CuspType((2, 5))) == mk({2: 1}, {5: 1}, 5)
    b = branches.branch_from_cusp_type(CuspType((4, 6, 7)))
    assert b == mk({4: 1}, {6: 1, 7: 1}, 7)


def test_perturbation_stability_of_the_scan():
    # adding a monomial whose exponent is divisible by the running divisor
    # at its position never changes the extracted type
    rng = random.Random(7)
    for p in list(cusps.enumerate_cusp_types(18)):
        if p.length_l == 0:
            continue
        ps = p.exponents
        ds = cusps.divisor_sequence(p).divisors
        model = branches.branch_from_cusp_type(p)
        y = {q: 1 for q in ps[1:]}
        # pick a slot between consecutive criticals and a non-critical exponent
        for i in range(p.length_l):
            q = ps[i] + ds[i]
            if q >= ps[i + 1] or q in y or q % ps[0] == 0:
                continue
            perturbed_y = dict(y)
            perturbed_y[q] = rng.randint(1, 5)
            perturbed = Branch.from_coordinates(
                [{ps[0]: 1}, perturbed_y],
                max(model.truncation_order, q),
            )
            assert (
                branches.cusp_type_of_branch(perturbed).exponents == ps
            ), f"type changed by adding t^{q} to {list(ps)}"


def test_rescaling_invariance():
    for p in [(2, 3), (4, 6, 7), (6, 9, 13)]:
        model = branches.branch_from_cusp_type(CuspType(p))
        for c in ("3", "-1/2", (0, 1)):
            scaled = branches.rescale_parameter(model, GR.of(*c) if isinstance(c, tuple) else c)
            assert branches.multiplicity(scaled) == branches.multiplicity(model)
            assert branches.cusp_order(scaled) == branches.cusp_order(model)
            assert branches.cusp_type_of_branch(scaled).exponents == p


# ---------------------------------------------------------------------------
# jet normal form
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "x,y,trunc,k,l",
    [
        ({2: 1}, {3: 1}, 3, 1, 0),  # ordinary cusp
        ({2: 1}, {5: 1}, 5, 1, 1),  # no y-term inside the order-3 jet
        ({3: 1}, {4: 1}, 5, 2, 0),  # 4 = k + l + 2 with l = 0
        ({3: 1}, {5: 1}, 5, 2, 1),  # 5 = k + l + 2 forces l = 1
    ],
)
def test_jet_normal_form_examples(x, y, trunc, k, l):
    jet = branches.jet_normal_form(mk(x, y, trunc))
    assert (jet.k, jet.l) == (k, l)
    assert not jet.p1[0].is_zero()
    if jet.l == jet.k:
        assert all(c.is_zero() for c in jet.p2)
    else:
        assert not jet.p2[0].is_zero()
        assert len(jet.p2) - 1 <= jet.k - jet.l - 1


def test_jet_p2_collects_coefficients():
    jet = branches.jet_normal_form(mk({3: 2}, {4: "1/2", 5: 3}, 5))
    assert jet.p1 == (GR.of(2),)
    assert jet.p2 == (GR.of("1/2"), GR.of(3))


def test_huge_truncation_order_changes_nothing():
    # dense series are sized by the stored exponents, not by the truncation
    small = mk({4: 1}, {5: 2, 7: 3}, 9)
    huge = mk({4: 1}, {5: 2, 7: 3}, 10**12)
    assert branches.jet_normal_form(huge) == branches.jet_normal_form(small)
    assert branches.jet_normal_form(huge).p2 == (GR.of(2), GR.of(0), GR.of(3))
    assert huge.coordinate_support(1) == [5, 7]
    other = mk({2: 1}, {3: 1}, 10**12)
    assert branches.intersection_multiplicity(huge, other) == 10
    assert branches.intersection_multiplicity(mk({4: 1}, {5: 2, 7: 3}, 12), other) == 10


def test_jet_requires_enough_truncation():
    with pytest.raises(TruncationTooShort):
        branches.jet_normal_form(mk({3: 1}, {4: 1}, 4))


def test_secondary_cusp_index():
    assert branches.secondary_cusp_index(mk({2: 1}, {3: 1}, 3)) == 0
    assert branches.secondary_cusp_index(mk({2: 1}, {5: 1}, 5)) == 1
    assert branches.secondary_cusp_index(mk({3: 1}, {4: 1}, 5)) == 0


def test_is_ordinary_cusp():
    assert branches.is_ordinary_cusp(mk({2: 1}, {3: 1}, 3))
    assert not branches.is_ordinary_cusp(mk({2: 1}, {5: 1}, 5))
    assert not branches.is_ordinary_cusp(mk({1: 1}, {2: 1}, 2))  # immersion


def test_jet_invariants_on_all_monomial_models():
    for p in cusps.enumerate_cusp_types(30):
        jet = branches.jet_normal_form(branches.branch_from_cusp_type(p))
        assert not jet.p1[0].is_zero()
        assert (jet.l == jet.k) == all(c.is_zero() for c in jet.p2)
        assert 0 <= jet.l <= jet.k


# ---------------------------------------------------------------------------
# intersection multiplicity
# ---------------------------------------------------------------------------

X_AXIS = mk({1: 1}, {}, 8)
Y_AXIS = mk({}, {1: 1}, 8)


def test_transversal_smooth_branches():
    assert branches.intersection_multiplicity(X_AXIS, Y_AXIS) == 1


def test_tangent_parabolas():
    b1 = mk({1: 1}, {2: 1}, 8)
    b2 = mk({1: 1}, {2: -1}, 8)
    assert branches.intersection_multiplicity(b1, b2) == 2


def test_cusp_against_axes():
    cusp = mk({2: 1}, {3: 1}, 8)
    # the x-axis is the cusp's tangent line: contact order 3
    assert branches.intersection_multiplicity(cusp, X_AXIS) == 3
    # a transversal line meets with the multiplicity of the branch
    assert branches.intersection_multiplicity(cusp, Y_AXIS) == 2


def test_both_paths_agree():
    pairs = [
        (mk({2: 1}, {3: 1}, 10), X_AXIS),
        (mk({2: 1}, {3: 1}, 10), Y_AXIS),
        (mk({1: 1}, {2: 1}, 10), mk({1: 1}, {3: 1}, 10)),
        (mk({1: 1}, {2: 1, 3: "1/2"}, 10), mk({1: 2}, {2: 1}, 10)),
        (mk({3: 1}, {4: 1}, 10), X_AXIS),
    ]
    for b1, b2 in pairs:
        res = branches.intersection_multiplicity(b1, b2)
        sub = branches.intersection_multiplicity_substitution(b1, b2)
        assert res == sub


def test_symmetry():
    cusp = mk({2: 1}, {3: 1}, 8)
    ramphoid = mk({2: 1}, {5: 1}, 8)
    for a, b in [(cusp, X_AXIS), (cusp, ramphoid), (ramphoid, Y_AXIS)]:
        assert branches.intersection_multiplicity(
            a, b
        ) == branches.intersection_multiplicity(b, a)


def test_equal_to_one_iff_transversal_smooth():
    rng = random.Random(3)
    lines = []
    for _ in range(6):
        vx, vy = rng.randint(-3, 3), rng.randint(-3, 3)
        if vx == 0 and vy == 0:
            vx = 1
        lines.append(mk({1: vx}, {1: vy}, 8))
    for i, a in enumerate(lines):
        for b in lines[i + 1 :]:
            va = a.leading_vector()
            vb = b.leading_vector()
            det = va[0] * vb[1] - va[1] * vb[0]
            if det.is_zero():
                continue  # parallel: same tangent, not transversal
            assert branches.intersection_multiplicity(a, b) == 1
    # non-smooth or non-transversal pairs exceed 1
    cusp = mk({2: 1}, {3: 1}, 8)
    assert branches.intersection_multiplicity(cusp, X_AXIS) > 1
    assert branches.intersection_multiplicity(cusp, Y_AXIS) > 1
    tangent_pair = (mk({1: 1}, {2: 1}, 8), mk({1: 1}, {3: 1}, 8))
    assert branches.intersection_multiplicity(*tangent_pair) > 1


def test_deep_tangency_between_two_cusps():
    # both have the ordinary 2,3-cusp and the same tangent; by hand,
    # y^2 - x^3 along (t^2, t^3 + t^4) is 2 t^7 + t^8
    b1 = mk({2: 1}, {3: 1}, 12)
    b2 = mk({2: 1}, {3: 1, 4: 1}, 12)
    assert branches.intersection_multiplicity(b1, b2) == 7


def test_high_tangency_graphs():
    b1 = mk({1: 1}, {4: 1}, 12)
    b2 = mk({1: 1}, {5: 2}, 12)
    assert branches.intersection_multiplicity(b1, b2) == 4
    assert branches.intersection_multiplicity_substitution(b1, b2) == 4


def test_identical_branches_are_indeterminate():
    cusp = mk({2: 1}, {3: 1}, 8)
    with pytest.raises(IndeterminateWithinTruncation):
        branches.intersection_multiplicity(cusp, cusp)


def test_high_contact_beyond_truncation_is_indeterminate():
    # the two graphs differ only at order 9 > min truncation 4
    b1 = mk({1: 1}, {2: 1}, 4)
    b2 = mk({1: 1}, {2: 1, 9: 1}, 9)
    with pytest.raises(IndeterminateWithinTruncation):
        branches.intersection_multiplicity(b1, b2)


def test_asymmetric_pair_is_local():
    # the polynomial jet of b passes through the origin again at s = -1; the
    # local norm does not count that point, whichever argument comes first
    b = mk({1: 1, 2: 1}, {2: 1, 3: 1}, 3)
    y_axis = mk({}, {1: 1}, 3)
    assert branches.intersection_multiplicity(b, y_axis) == 1
    assert branches.intersection_multiplicity(y_axis, b) == 1
    assert branches.intersection_multiplicity_substitution(b, y_axis) == 1


# Quasi-homogeneous pairs ((a, b), (c, d), T) of the exact_scaling benchmark;
# the last three were refused by the old valuation-bound trust rule.
@pytest.mark.parametrize(
    "ab,cd,t",
    [
        ((2, 3), (3, 4), 9),
        ((2, 3), (2, 5), 6),
        ((2, 5), (3, 4), 9),
        ((2, 3), (3, 4), 5),
        ((3, 5), (4, 7), 9),
        ((2, 7), (3, 5), 9),
    ],
)
def test_monomial_pairs_answer(ab, cd, t):
    (a, b), (c, d) = ab, cd
    b1, b2 = mk({a: 1}, {b: 1}, t), mk({c: 1}, {d: 1}, t)
    assert branches.intersection_multiplicity(b1, b2) == min(a * d, b * c)
    assert branches.intersection_multiplicity(b2, b1) == min(a * d, b * c)


def test_each_conjugate_factor_is_checked():
    # (t^2, t^3) against (s^3, s^4): three factors of valuation 8/3 each,
    # and the first unknown tail enters at t^4
    cusp = branches.branch_from_cusp_type(CuspType((2, 3)))
    other = branches.branch_from_cusp_type(CuspType((3, 4)))
    assert branches.intersection_multiplicity(cusp, other) == 8
    # a factor of valuation 4 = T1 + 1 is not determined: the tail of the
    # graph can cancel its leading term
    graph = mk({1: 1}, {2: 1, 4: 1}, 9)
    with pytest.raises(IndeterminateWithinTruncation):
        branches.intersection_multiplicity(mk({1: 1}, {2: 1}, 3), graph)
    assert branches.intersection_multiplicity(mk({1: 1}, {2: 1}, 4), graph) == 4
    # factors of valuation 4 and 3 against (s^2, s^3): the total 7 is below
    # 2 * (T + 1), but the s^4 tail of the ring branch reaches the first one
    cusp4 = mk({2: 1}, {3: 1, 4: 1}, 4)
    for t, expected in ((3, None), (4, 7)):
        for pair in ((mk({2: 1}, {3: 1}, t), cusp4), (cusp4, mk({2: 1}, {3: 1}, t))):
            if expected is None:
                with pytest.raises(IndeterminateWithinTruncation):
                    branches.intersection_multiplicity(*pair)
            else:
                assert branches.intersection_multiplicity(*pair) == expected
    # (t^4 + t^5, t^6 + 3/2 t^7) against (s^2, s^3): factors of valuation 8
    # and 6; the first needs y1 beyond t^7
    quartic = {4: 1, 5: 1}, {6: 1, 7: Fraction(3, 2)}
    ring = mk({2: 1}, {3: 1}, 20)
    with pytest.raises(IndeterminateWithinTruncation):
        branches.intersection_multiplicity(mk(*quartic, 7), ring)
    assert branches.intersection_multiplicity(mk(*quartic, 8), ring) == 14


def test_coordinates_follow_the_multiplicity():
    # (s^3, s^2) has multiplicity 2 in y; in x, the tail of x1 = t^3 + ...
    # would reach the factor of valuation 4 of the jet (t^3, t^2 + t^4)
    jet = mk({3: 1}, {2: 1, 4: 1}, 4)
    with pytest.raises(IndeterminateWithinTruncation):
        branches.intersection_multiplicity(jet, mk({3: 1}, {2: 1}, 20))
    ring = mk({3: 1}, {2: 1}, 10**6)
    assert branches.intersection_multiplicity(mk({3: 1}, {2: 1, 4: 1}, 10**6), ring) == 8
    tailed = mk({3: 1, 5: Fraction(3, 2)}, {2: 1, 4: 1}, 10**6)
    assert branches.intersection_multiplicity(tailed, ring) == 10


def test_ring_branch_is_reparametrised():
    # x = s + s^2 is not a monomial: the ring comes from s -> sigma(s); the
    # parabola (s + s^2, (s + s^2)^2 + s^5) meets y = x^2 with contact 5
    parabola = mk({1: 1}, {2: 1}, 9)
    b = mk({1: 1, 2: 1}, {2: 1, 3: 2, 4: 1, 5: 1}, 9)
    assert branches.intersection_multiplicity(parabola, b) == 5
    assert branches.intersection_multiplicity(b, parabola) == 5
    assert branches.intersection_multiplicity_substitution(parabola, b) == 5


def test_series_inverse_composes_to_identity():
    f = [GR.of(0), GR.of(2), GR.of(-1), GR.of("1/3"), GR.of(0, 1)]
    inverse = branches._series_inverse(f, 8)
    assert branches._compose_trunc(f, inverse, 8) == [GR.of(0), GR.of(1)]
    assert branches._compose_trunc(inverse, f, 8) == [GR.of(0), GR.of(1)]


def test_substitution_reads_only_min_truncation():
    start = time.perf_counter()
    b1 = mk({1: 1}, {2: 1}, 10**6)
    b2 = mk({1: 1}, {3: 1}, 8)
    assert branches.intersection_multiplicity_substitution(b1, b2) == 2
    assert branches.intersection_multiplicity(b1, b2) == 2
    assert time.perf_counter() - start < 1.0


def test_huge_stored_exponent_is_never_read():
    start = time.perf_counter()
    b = mk({2: 1}, {3: 1, 10**12: 1}, 10**12)
    other = branches.branch_from_cusp_type(CuspType((2, 5)))
    assert branches.intersection_multiplicity(b, other) == 6
    assert branches.intersection_multiplicity(other, b) == 6
    # identical jets with a huge stored exponent are refused, not expanded
    with pytest.raises(IndeterminateWithinTruncation):
        branches.intersection_multiplicity(b, b)
    assert time.perf_counter() - start < 1.0


# random plane branches: small multiplicity, exponents <= 9, T <= 10, and
# coefficients of the size the verify suites draw
_small = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 9))
small_gaussians = st.builds(GR.of, _small, _small)
_plane_vectors = st.tuples(small_gaussians, small_gaussians).filter(any)


@st.composite
def plane_branches(draw, max_mult=3):
    mult = draw(st.integers(1, max_mult))
    exps = sorted({mult} | draw(st.sets(st.integers(mult + 1, 9), max_size=4)))
    terms = tuple((e, draw(_plane_vectors)) for e in exps)
    return Branch(2, terms, exps[-1] + draw(st.integers(0, 1)))


def _norm(b1, b2):
    try:
        return branches.intersection_multiplicity(b1, b2)
    except IndeterminateWithinTruncation:
        return None


@st.composite
def plane_pairs(draw):
    """Independent pairs, and pairs that agree to a random order."""
    b1 = draw(plane_branches())
    if draw(st.booleans()):
        return b1, draw(plane_branches())
    t2 = max(1, b1.truncation_order + draw(st.integers(-1, 2)))
    k = draw(st.integers(1, t2))
    coords = [{e: v[i] for e, v in b1.terms if e <= t2} for i in (0, 1)]
    coords[1][k] = coords[1].get(k, GR.of(0)) + draw(small_gaussians.filter(bool))
    coords[1] = {e: c for e, c in coords[1].items() if c}
    assume(coords[0] or coords[1])
    return b1, Branch.from_coordinates(coords, t2)


@settings(max_examples=150, deadline=None)
@given(plane_pairs())
def test_symmetry_including_refusals(pair):
    b1, b2 = pair
    assert _norm(b1, b2) == _norm(b2, b1)


def _with_tail(draw, b, extra):
    coords = [{e: v[i] for e, v in b.terms} for i in (0, 1)]
    top = b.truncation_order + extra
    for e in range(b.truncation_order + 1, top + 1):
        for i in (0, 1):
            if draw(st.booleans()):
                coords[i][e] = draw(small_gaussians)
    return Branch.from_coordinates(coords, top)


@settings(max_examples=150, deadline=None)
@given(plane_pairs(), st.data())
def test_tails_never_change_a_returned_answer(pair, data):
    b1, b2 = pair
    answer = _norm(b1, b2)
    if answer is None:
        return
    for _ in range(2):
        longer1 = _with_tail(data.draw, b1, data.draw(st.integers(0, 4)))
        longer2 = _with_tail(data.draw, b2, data.draw(st.integers(0, 4)))
        assert _norm(longer1, longer2) == answer
    # the jets themselves, trusted to any order (tails of zeros)
    assert _norm(Branch(2, b1.terms, 10**9), Branch(2, b2.terms, 10**9)) == answer


@st.composite
def graph_pairs(draw):
    """A smooth graph branch over the x-axis and a probe branch."""
    t = draw(st.integers(3, 8))
    x = {1: draw(small_gaussians.filter(bool))}
    x.update({e: draw(small_gaussians) for e in range(2, draw(st.integers(1, 3)) + 1)})
    y = {e: draw(small_gaussians) for e in range(1, t + 1)}
    graph = Branch.from_coordinates([x, y], t)
    probe = draw(plane_branches())
    return (graph, probe) if draw(st.booleans()) else (probe, graph)


@settings(max_examples=150, deadline=None)
@given(graph_pairs())
def test_norm_equals_substitution_on_graph_pairs(pair):
    try:
        expected = branches.intersection_multiplicity_substitution(*pair)
    except IndeterminateWithinTruncation:
        expected = None
    norm = _norm(*pair)
    # the substitution path cuts every series at min(T1, T2), so the norm
    # answers at least whenever it does, and then with the same value
    if expected is not None:
        assert norm == expected
    if norm is None:
        assert expected is None


_coprime_types = st.tuples(st.integers(1, 7), st.integers(2, 13)).filter(
    lambda ab: ab[0] < ab[1] and math.gcd(*ab) == 1
)


@settings(max_examples=150, deadline=None)
@given(_coprime_types, _coprime_types, st.integers(0, 3), st.integers(0, 3))
def test_norm_of_coprime_monomial_pairs(ab, cd, extra1, extra2):
    (a, b), (c, d) = ab, cd
    b1 = mk({a: 1}, {b: 1}, b + extra1)
    b2 = mk({c: 1}, {d: 1}, d + extra2)
    if ab == cd:
        with pytest.raises(IndeterminateWithinTruncation):
            branches.intersection_multiplicity(b1, b2)
        return
    assert branches.intersection_multiplicity(b1, b2) == min(a * d, b * c)
    assert branches.intersection_multiplicity(b2, b1) == min(a * d, b * c)


def _compose_poly(p, s):
    """p(s(t)) for exact polynomials given as {exponent: coefficient}."""
    out, power = {}, {0: GR.of(1)}
    for k in range(max(p, default=0) + 1):
        if k:
            power = _poly_mul(power, s)
        if k in p:
            for e, v in power.items():
                out[e] = out.get(e, GR.of(0)) + p[k] * v
    return {e: v for e, v in out.items() if v}


def _poly_mul(a, b):
    out = {}
    for i, x in a.items():
        for j, y in b.items():
            out[i + j] = out.get(i + j, GR.of(0)) + x * y
    return out


@settings(max_examples=60, deadline=None)
@given(plane_pairs(), st.data())
def test_invariant_under_reparametrisation_and_linear_change(pair, data):
    exact = [Branch(2, b.terms, 10**9) for b in pair]
    answer = _norm(*exact)
    assume(answer is not None)  # the jets meet with finite multiplicity
    m = [[data.draw(small_gaussians) for _ in range(2)] for _ in range(2)]
    if (m[0][0] * m[1][1] - m[0][1] * m[1][0]).is_zero():
        m = [[GR.of(0), GR.of(1)], [GR.of(1), GR.of(0)]]
    moved = []
    for b in exact:
        r = {1: data.draw(small_gaussians.filter(bool)), 2: data.draw(small_gaussians)}
        x, y = (_compose_poly({e: v[i] for e, v in b.terms}, r) for i in (0, 1))
        coords = [
            {e: m[i][0] * x.get(e, GR.of(0)) + m[i][1] * y.get(e, GR.of(0))
             for e in set(x) | set(y)}
            for i in (0, 1)
        ]
        moved.append(Branch.from_coordinates(coords, 10**9))
    assert _norm(*moved) == answer
