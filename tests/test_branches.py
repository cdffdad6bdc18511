"""Branch invariants: extraction, normal forms, intersections."""

import json
import math
import random
import re
import time
from fractions import Fraction

import numpy as np
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
    WorkLimitExceeded,
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
    with pytest.raises(InvalidBranch, match="coefficient vector has wrong length"):
        Branch(2, ((2, x), (3, (GR.of(1),))), 3)
    # the integer rule: a bool or a float is refused by name, a numpy int is read
    for bad in (True, 2.0):
        for what, args in (
            ("ambient dimension", (bad, ((2, x), (3, y)), 3)),
            ("exponent", (2, ((bad, x), (3, y)), 3)),
            ("truncation order", (2, ((2, x), (3, y)), bad)),
        ):
            message = re.escape(f"{what} must be an integer, got {bad!r}")
            with pytest.raises(InvalidBranch, match=f"^{message}$"):
                Branch(*args)
    z = (GR.of(0), GR.of(0), GR.of(1))
    b = Branch(np.int64(3), ((2, x + (GR.of(0),)), (np.int64(3), z)), np.int64(3))
    assert (b.ambient_dim, b.terms[1][0], b.truncation_order) == (3, 3, 3)
    assert {type(b.ambient_dim), type(b.terms[1][0]), type(b.truncation_order)} == {int}


@pytest.mark.parametrize(
    "k,l,p1,p2,message",
    [
        (1, 2, (1,), (), "secondary index l=2 outside [0, 1]"),
        (1, -1, (1,), (1,), "secondary index l=-1 outside [0, 1]"),
        (1, 1, (), (), "P1(0) must be nonzero"),
        (1, 1, (0, 1), (), "P1(0) must be nonzero"),
        (1, 1, (1, 1, 1), (), "deg P1 exceeds k"),
        (1, 1, (1,), (0, 1), "P2 must vanish when l = k"),
        (2, 0, (1,), (), "P2(0) must be nonzero when l < k"),
        (2, 0, (1,), (0, 1), "P2(0) must be nonzero when l < k"),
        (2, 0, (1,), (1, 1, 1), "deg P2 exceeds k - l - 1"),
    ],
)
def test_jet_normal_form_names_each_fault(k, l, p1, p2, message):
    p1, p2 = tuple(map(GR.of, p1)), tuple(map(GR.of, p2))
    with pytest.raises(InvalidBranch, match=re.escape(message)):
        branches.BranchJetNormalForm(k, l, p1, p2)
    # the same data with the fault mended constructs
    branches.BranchJetNormalForm(2, 0, (GR.of(1),), (GR.of(1), GR.of(1)))


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


def _prepare_by_coordinates(b):
    """Reference for prepare(): per-coordinate {exponent: coefficient} maps,
    multiples of mu deleted from the non-leading ones, rebuilt by
    from_coordinates."""
    mu = branches.multiplicity(b)
    coords = [dict() for _ in range(b.ambient_dim)]
    for exp, vec in b.terms:
        for i, c in enumerate(vec):
            if c:
                coords[i][exp] = c
    for i in range(1, b.ambient_dim):
        for exp in sorted(coords[i]):
            if exp % mu == 0:
                del coords[i][exp]
    return Branch.from_coordinates(coords, b.truncation_order)


@st.composite
def monomial_first_branches(draw):
    """First coordinate c t^mu; later terms at exponents <= 12, with some at
    multiples of mu, which prepare() blanks and so often drops entirely."""
    n = draw(st.integers(2, 3))
    mu = draw(st.integers(1, 6))
    others = st.tuples(*[small_gaussians] * (n - 1))
    exps = draw(st.sets(st.integers(mu + 1, 12), max_size=5))
    multiples = range(2 * mu, 13, mu)
    if multiples:
        exps |= draw(st.sets(st.sampled_from(multiples), max_size=3))
    terms = [(mu, (draw(small_gaussians.filter(bool)),) + draw(others))]
    terms += [(e, (GR.of(0),) + draw(others.filter(any))) for e in sorted(exps)]
    return Branch(n, terms, terms[-1][0] + draw(st.integers(0, 2)))


@settings(max_examples=200, deadline=None)
@given(monomial_first_branches())
def test_prepare_equals_the_coordinate_construction(b):
    prepared = branches.prepare(b)
    assert prepared == _prepare_by_coordinates(b)
    assert branches.is_prepared(prepared)


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


def _gcd_drop_scan(b):
    """Reference: the explicit gcd-drop loop that cusp_type_of_branch
    replaced by divisor_sequence, critical_mask and compress."""
    if not branches.is_prepared(b):
        raise NotPreparedBranch("cusp type extraction requires prepared form")
    mu = branches.multiplicity(b)
    support = sorted(
        {e for i in range(1, b.ambient_dim) for e in b.coordinate_support(i)}
    )
    exponents = [mu]
    d = mu
    for q in support:
        if d == 1:
            break
        g = math.gcd(d, q)
        if g < d:
            exponents.append(q)
            d = g
    if d != 1:
        raise MultipleOrTruncatedBranch(
            f"gcd stalls at {d} within truncation order {b.truncation_order}"
        )
    return CuspType(tuple(exponents))


@st.composite
def prepared_branches(draw):
    """Prepared branches in C^2 or C^3 with exponents <= 40.  With step > 1
    every later exponent is a multiple of step, so the gcd stalls whenever
    step divides mu."""
    n = draw(st.integers(2, 3))
    mu = draw(st.integers(1, 12))
    step = draw(st.sampled_from([1, 1, 2, 3, 4]))
    others = st.tuples(*[small_gaussians] * (n - 1)).filter(any)
    exps = draw(st.sets(st.integers(mu // step + 1, 40 // step).map(step.__mul__), max_size=8))
    terms = [(mu, (draw(small_gaussians.filter(bool)),) + (GR.of(0),) * (n - 1))]
    terms += [(e, (GR.of(0),) + draw(others)) for e in sorted(exps)]
    return Branch(n, terms, terms[-1][0] + draw(st.integers(0, 3)))


def _outcome(fn, b):
    try:
        return fn(b)
    except Exception as exc:  # compared by type and message
        return type(exc), str(exc)


@settings(max_examples=300, deadline=None)
@given(prepared_branches())
def test_cusp_type_of_branch_equals_the_gcd_drop_loop(b):
    assert branches.is_prepared(b)
    assert _outcome(branches.cusp_type_of_branch, b) == _outcome(_gcd_drop_scan, b)


def test_roundtrip_exhaustive():
    for p in cusps.enumerate_cusp_types(30):
        model = branches.branch_from_cusp_type(p)
        assert branches.cusp_type_of_branch(model).exponents == p.exponents


def test_monomial_models():
    assert branches.branch_from_cusp_type(CuspType((2, 3))) == mk({2: 1}, {3: 1}, 3)
    assert branches.branch_from_cusp_type(CuspType((2, 5))) == mk({2: 1}, {5: 1}, 5)
    b = branches.branch_from_cusp_type(CuspType((4, 6, 7)))
    assert b == mk({4: 1}, {6: 1, 7: 1}, 7)


def test_monomial_models_equal_the_coordinate_construction():
    types = list(cusps.enumerate_cusp_types(30))
    assert len(types) == 777
    for p in types:
        p0, *rest = p.exponents
        expected = Branch.from_coordinates(
            [{p0: 1}, {q: 1 for q in rest}], max(p.p_last, 2 * p0 - 1)
        )
        assert branches.branch_from_cusp_type(p) == expected


def test_perturbation_stability_of_the_scan():
    # adding a monomial whose exponent is divisible by the running divisor
    # at its position never changes the extracted type
    rng = random.Random(7)
    for p in list(cusps.enumerate_cusp_types(18)):
        if len(p) == 1:
            continue
        ps = p.exponents
        ds = cusps.divisor_sequence(p)
        model = branches.branch_from_cusp_type(p)
        y = {q: 1 for q in ps[1:]}
        # pick a slot between consecutive criticals and a non-critical exponent
        for i in range(len(p) - 1):
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


def _rescale_parameter(b, c):
    """Exact reparametrisation t -> c*t, c a nonzero Gaussian rational."""
    terms = tuple((exp, tuple((c ** exp) * v for v in vec)) for exp, vec in b.terms)
    return Branch(b.ambient_dim, terms, b.truncation_order)


def test_rescaling_invariance():
    for p in [(2, 3), (4, 6, 7), (6, 9, 13)]:
        model = branches.branch_from_cusp_type(CuspType(p))
        for c in (GR.of(3), GR.of("-1/2"), GR.of(0, 1)):
            scaled = _rescale_parameter(model, c)
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
    assert jet.p1[0]
    if jet.l == jet.k:
        assert not any(jet.p2)
    else:
        assert jet.p2[0]
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


def _jet_family(h):
    """The model of (2h, 2h + 2, 4h - 1), whose P2 has 2h - 2 coefficients."""
    return branches.branch_from_cusp_type(CuspType((2 * h, 2 * h + 2, 4 * h - 1)))


def test_jet_refuses_a_p2_above_the_ceiling_before_building_it():
    # the work ceiling: branch prints P2, 1.2 MB at 10^5 coefficients
    assert len(branches.jet_normal_form(_jet_family(50001)).p2) == 10**5
    start = time.perf_counter()
    for h in (50002, 10**16, 10**400):
        with pytest.raises(ValueError, match="P2 must hold at most 100000 coefficients"):
            branches.jet_normal_form(_jet_family(h))
    assert time.perf_counter() - start < 0.5


def test_jet_requires_enough_truncation():
    with pytest.raises(TruncationTooShort):
        branches.jet_normal_form(mk({3: 1}, {4: 1}, 4))


def test_jet_requires_a_prepared_plane_branch():
    with pytest.raises(InvalidBranch, match="plane branches"):
        branches.jet_normal_form(Branch.from_coordinates([{2: 1}, {3: 1}, {5: 1}], 9))
    with pytest.raises(NotPreparedBranch, match="prepared form"):
        branches.jet_normal_form(mk({2: 1, 3: 1}, {3: 1}, 9))


def test_secondary_cusp_index():
    assert branches.jet_normal_form(mk({2: 1}, {3: 1}, 3)).l == 0
    assert branches.jet_normal_form(mk({2: 1}, {5: 1}, 5)).l == 1
    assert branches.jet_normal_form(mk({3: 1}, {4: 1}, 5)).l == 0


def test_is_ordinary_cusp():
    # an ordinary cusp is a jet with k = 1 and l = 0, as `branch` reports it
    def ordinary(b):
        jet = branches.jet_normal_form(b)
        return jet.k == 1 and jet.l == 0

    assert ordinary(mk({2: 1}, {3: 1}, 3))
    assert not ordinary(mk({2: 1}, {5: 1}, 5))
    assert not ordinary(mk({1: 1}, {2: 1}, 2))  # immersion


def test_jet_invariants_on_all_monomial_models():
    for p in cusps.enumerate_cusp_types(30):
        jet = branches.jet_normal_form(branches.branch_from_cusp_type(p))
        assert jet.p1[0]
        assert (jet.l == jet.k) == (not any(jet.p2))
        assert 0 <= jet.l <= jet.k


# ---------------------------------------------------------------------------
# prepared form: the readers against support-based definitions
# ---------------------------------------------------------------------------

_BREAKS = ("zero leading coefficient", "others at mu", "later first terms")


@st.composite
def any_branches(draw):
    """Branches in C^2 to C^4, prepared or not, with later terms at
    exponents <= 24, some at multiples of mu.  Each drawn break leaves
    prepared form its own way; with none drawn the branch is prepared."""
    n = draw(st.integers(2, 4))
    mu = draw(st.integers(1, 6))
    breaks = draw(st.sets(st.sampled_from(_BREAKS)))
    zero_lead, others_at_mu, later_first = (name in breaks for name in _BREAKS)
    zero, others = GR.of(0), [small_gaussians] * (n - 1)
    lead = zero if zero_lead else draw(small_gaussians.filter(bool))
    head = (zero,) * (n - 1)
    if zero_lead or others_at_mu:  # the leading vector stays nonzero
        head = draw(st.tuples(*others).filter(any))
    first = small_gaussians if later_first else st.just(zero)
    exps = draw(st.sets(st.integers(mu + 1, 24), max_size=6))
    exps |= draw(st.sets(st.sampled_from(range(2 * mu, 25, mu)), max_size=3))
    terms = [(mu, (lead, *head))]
    terms += [(e, draw(st.tuples(first, *others).filter(any))) for e in sorted(exps)]
    return Branch(n, terms, terms[-1][0] + draw(st.integers(0, 6)))


def _is_prepared_by_support(b):
    """Reference: the first coordinate's support is [mu] and every other
    coordinate's support lies above mu."""
    mu = branches.multiplicity(b)
    if b.coordinate_support(0) != [mu]:
        return False
    return all(
        min(b.coordinate_support(i), default=mu + 1) > mu
        for i in range(1, b.ambient_dim)
    )


def _jet_by_support(b):
    """Reference for a prepared plane branch: l and P2 from the second
    coordinate's support up to 2k+1 and a map of every term's second
    coefficient."""
    k = branches.cusp_order(b)
    jet_order = 2 * k + 1
    if b.truncation_order < jet_order:
        raise TruncationTooShort(
            f"need truncation order >= {jet_order}, have {b.truncation_order}"
        )
    p1 = (b.terms[0][1][0],)
    y_exps = [q for q in b.coordinate_support(1) if q <= jet_order]
    if not y_exps:
        return branches.BranchJetNormalForm(k, k, p1, ())
    y = {exp: vec[1] for exp, vec in b.terms}
    p2 = tuple(y.get(q, GR.of(0)) for q in range(y_exps[0], y_exps[-1] + 1))
    return branches.BranchJetNormalForm(k, y_exps[0] - k - 2, p1, p2)


@settings(max_examples=300, deadline=None)
@given(any_branches())
def test_prepared_readers_equal_the_support_definitions(b):
    prepared = branches.is_prepared(b)
    assert prepared == _is_prepared_by_support(b)
    assert _outcome(branches.cusp_type_of_branch, b) == _outcome(_gcd_drop_scan, b)
    if prepared and b.ambient_dim == 2:
        assert _outcome(branches.jet_normal_form, b) == _outcome(_jet_by_support, b)


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
            va = a.terms[0][1]
            vb = b.terms[0][1]
            det = va[0] * vb[1] - va[1] * vb[0]
            if not det:
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


def test_working_precision_ceiling_refuses_in_time():
    # the jets determine I = 200, but the norm stops doubling its precision
    # at order 128: the answer is refused, quickly and in both orders
    start = time.perf_counter()
    b1 = mk({1: 1}, {2: 1}, 10**6)
    b2 = mk({1: 1}, {2: 1, 200: 1}, 10**6)
    for pair in ((b1, b2), (b2, b1)):
        with pytest.raises(WorkLimitExceeded, match="working precision"):
            branches.intersection_multiplicity(*pair)
    assert time.perf_counter() - start < 1.0


def test_substitution_refuses_what_it_cannot_answer():
    graph = mk({1: 1}, {2: 1, 3: 5}, 7)
    with pytest.raises(IndeterminateWithinTruncation, match="agree up to truncation"):
        branches.intersection_multiplicity_substitution(graph, graph)
    with pytest.raises(ValueError, match="needs a smooth graph branch"):
        branches.intersection_multiplicity_substitution(
            mk({2: 1}, {3: 1}, 9), mk({2: 1}, {5: 1}, 9)
        )


def test_both_paths_need_plane_branches():
    space = Branch.from_coordinates([{2: 1}, {3: 1}, {5: 1}], 9)
    cusp = mk({2: 1}, {3: 1}, 9)
    for path in (
        branches.intersection_multiplicity,
        branches.intersection_multiplicity_substitution,
    ):
        for pair in ((space, cusp), (cusp, space)):
            with pytest.raises(InvalidBranch, match="needs plane branches"):
                path(*pair)


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


def test_substitution_inverts_on_its_own(monkeypatch):
    # the oracle checks the norm only while it does not share its inversion
    def shared(*args):
        raise AssertionError("the substitution oracle called _reparametrised")

    monkeypatch.setattr(branches, "_reparametrised", shared)
    parabola = mk({1: 1}, {2: 1}, 9)
    b = mk({1: 1, 2: 1}, {2: 1, 3: 2, 4: 1, 5: 1}, 9)
    assert branches.intersection_multiplicity_substitution(parabola, b) == 5
    assert branches.intersection_multiplicity_substitution(b, parabola) == 5


def test_substitution_reads_only_min_truncation():
    start = time.perf_counter()
    b1 = mk({1: 1}, {2: 1}, 10**6)
    b2 = mk({1: 1}, {3: 1}, 8)
    assert branches.intersection_multiplicity_substitution(b1, b2) == 2
    assert branches.intersection_multiplicity(b1, b2) == 2
    assert time.perf_counter() - start < 1.0


def test_substitution_over_a_monomial_base_is_linear_in_truncation():
    # x = t inverts to t directly.  The Lagrange inversion is linear in T on
    # the sparse series, but still takes about 0.18 s here against 0.2 ms
    # with the shortcut (CPython 3.11, 2-CPU machine).  A term of x beyond
    # the cut at min(T1, T2) leaves x monomial.
    start = time.perf_counter()
    b1 = mk({1: 1}, {2: 1}, 10**4)
    b2 = mk({1: 1}, {3: 1}, 10**4)
    assert branches.intersection_multiplicity_substitution(b1, b2) == 2
    tailed = mk({1: 1, 9000: 1}, {2: 1}, 10**4)
    assert branches.intersection_multiplicity_substitution(mk({1: 1}, {3: 1}, 5000), tailed) == 2
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


def test_norm_of_high_valuation_monomial_pairs_is_fast():
    # each series holds a few nonzero terms far apart: the norm's cost
    # follows those terms, not the valuation I that sets the precision
    start = time.perf_counter()
    for (a, b), (c, d), expected in (
        ((59, 60), (53, 54), 3180),
        ((2, 9999), (3, 9998), 19996),
        ((101, 102), (99, 100), 10098),  # a ring of multiplicity 99
    ):
        assert min(a * d, b * c) == expected
        b1 = branches.branch_from_cusp_type(CuspType((a, b)))
        b2 = branches.branch_from_cusp_type(CuspType((c, d)))
        assert branches.intersection_multiplicity(b1, b2) == expected
        assert branches.intersection_multiplicity(b2, b1) == expected
    assert time.perf_counter() - start < 1.0


def test_ring_multiplicity_ceiling_is_order_independent():
    # the recursion makes about n^2 series products: n = 499 answers, and
    # n = 501 is refused in both orders before any series is built
    def model(a, b):
        return branches.branch_from_cusp_type(CuspType((a, b)))

    assert branches.intersection_multiplicity(model(501, 502), model(499, 500)) == 250498
    start = time.perf_counter()
    for b1, b2 in ((model(503, 504), model(501, 502)), (model(501, 502), model(503, 504))):
        with pytest.raises(ValueError, match="multiplicity <= 500, got 501"):
            branches.intersection_multiplicity(b1, b2)
    with pytest.raises(IndeterminateWithinTruncation, match="identical"):
        branches.intersection_multiplicity(model(503, 504), model(503, 504))
    assert time.perf_counter() - start < 0.5


def test_series_stores_no_zero_term():
    prec = 5
    assert branches._Series.of({0: GR.of(0), 2: GR.of(1)}, prec).ord() == 2
    a = branches._Series.of({1: GR.of(2, 1), 3: GR.of(Fraction(1, 3))}, prec)
    assert not a - a
    # the t and t^2 terms cancel; t^3 and t^4 remain
    b = branches._Series.of({1: GR.of(-2, -1), 2: GR.of(0, 1), 4: GR.of(7)}, prec)
    c = branches._Series.of({2: GR.of(0, -1), 3: GR.of(1)}, prec)
    assert (a + b + c).ord() == 3
    assert sorted((a + b + c).terms) == [3, 4]
    # every product term lies at or beyond t^prec
    high = branches._Series.of({3: GR.of(1), 4: GR.of(0, 1)}, prec)
    low = branches._Series.of({2: GR.of(5)}, prec)
    assert not high * low
    for s in (a, b, c, a - a, a + b + c, high * low, a * b):
        assert all(r or i for r, i in s.terms.values())


def _random_series(rng, prec, low=0):
    """A dense series with small Gaussian-rational coefficients from t^low."""
    def part():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 4))

    return branches._Series.of({k: GR(part(), part()) for k in range(low, prec)}, prec)


def test_ring_product_stores_only_nonzero_coefficients():
    # (1 + sigma)(1 - sigma) = 1 - sigma^2 = 1 - a: the sigma coefficient
    # cancels and is not stored, and sigma * sigma comes back as a
    rng = random.Random(5)
    prec = 6
    one = branches._Series.of({0: GR.of(1)}, prec)
    a = _random_series(rng, prec, low=1)
    product = branches._ring_mul({0: one, 1: one}, {0: one, 1: one.scaled(GR.of(-1))}, a, 2)
    assert list(product) == [0]
    expected = one - a
    assert (product[0].terms, product[0].den) == (expected.terms, expected.den)


def test_characteristic_polynomial_of_a_quadratic_ring():
    # g = g_0 + g_1 sigma with sigma^2 = a acts by [[g_0, a g_1], [g_1, g_0]]
    rng = random.Random(11)
    prec = 6
    g = {0: _random_series(rng, prec), 1: _random_series(rng, prec)}
    a = _random_series(rng, prec, low=1)
    one, c1, c2 = branches._characteristic_polynomial(g, a, 2)
    assert one.terms == {0: (1, 0)} and one.den == 1
    assert not c1 - g[0].scaled(GR.of(-2))
    assert not c2 - (g[0] * g[0] - a * g[1] * g[1])


@pytest.mark.parametrize("n", [3, 4, 5])
def test_characteristic_polynomial_annihilates_its_element(n):
    # Cayley-Hamilton in Q(i)[[t]][sigma] / (sigma^n - a): sum c_k g^(n-k) = 0
    rng = random.Random(n)
    prec = 6
    g = {r: _random_series(rng, prec) for r in range(n)}
    a = _random_series(rng, prec, low=1)
    coeffs = branches._characteristic_polynomial(g, a, n)
    assert len(coeffs) == n + 1
    assert coeffs[0].terms == {0: (1, 0)} and coeffs[0].den == 1
    assert not coeffs[1] - g[0].scaled(GR.of(-n))
    zero = branches._Series({}, prec)
    powers = [{0: branches._Series.of({0: GR.of(1)}, prec)}]
    for _ in range(n):
        powers.append(branches._ring_mul(powers[-1], g, a, n))
    for r in range(n):
        total = zero
        for k, c in enumerate(coeffs):
            total = total + c * powers[n - k].get(r, zero)
        assert not total


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


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 9),
    small_gaussians.filter(bool),
    st.dictionaries(st.integers(2, 9), small_gaussians.filter(bool), min_size=1),
)
def test_series_inverse_composes_to_identity(prec, c, tail):
    x = {1: c, **tail}
    inverse = branches._inverse_terms(x, prec)
    identity = branches._Series.of({1: GR.of(1)}, prec)
    for outer, inner in ((x, inverse), (inverse, x)):
        composed = branches._substituted(outer, branches._Series.of(inner, prec))
        assert not composed - identity


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
    if not m[0][0] * m[1][1] - m[0][1] * m[1][0]:
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


# ---------------------------------------------------------------------------
# Halphen-Zeuthen: an exact oracle for pairs with monomial first coordinates
# ---------------------------------------------------------------------------

# the roots of unity in Q(i), each with its angle k: e(k) = exp(2 pi i k)
_UNITS = {GR.of(1): Fraction(0), GR.of(0, 1): Fraction(1, 4),
          GR.of(-1): Fraction(1, 2), GR.of(0, -1): Fraction(3, 4)}


def _puiseux_roots(b):
    """The n Puiseux roots of (t^n, y(t)) as {x exponent: (c, angle)}, the
    term c * e(angle) * x^(p/n) of y(zeta^a x^(1/n)), zeta = e(1/n)."""
    x, y = ({exp: vec[i] for exp, vec in b.terms if vec[i]} for i in (0, 1))
    [(n, lead)] = x.items()
    assert lead == GR.of(1)
    return n, [
        {Fraction(p, n): (c, Fraction(a * p % n, n)) for p, c in y.items()}
        for a in range(n)
    ]


def _same_term(u, v):
    """c e(alpha) == d e(beta): c / d must be a unit of Q(i) whose angle
    matches beta - alpha modulo 1."""
    if u is None or v is None:
        return u is v
    (c, alpha), (d, beta) = u, v
    k = _UNITS.get(c / d)
    return k is not None and (beta - alpha - k).denominator == 1


def halphen(b1, b2):
    """I = sum over the n * m pairs of Puiseux roots of ord_x(y_a - z_b), for
    first coordinates exactly t^n and s^m; None when a pair agrees up to the
    horizon min((T1 + 1) / n, (T2 + 1) / m), where a tail can change it."""
    n, roots1 = _puiseux_roots(b1)
    m, roots2 = _puiseux_roots(b2)
    horizon = min(Fraction(b1.truncation_order + 1, n),
                  Fraction(b2.truncation_order + 1, m))
    total = Fraction(0)
    for ya in roots1:
        for zb in roots2:
            order = next(
                (e for e in sorted(set(ya) | set(zb))
                 if e < horizon and not _same_term(ya.get(e), zb.get(e))),
                None,
            )
            if order is None:
                return None
            total += order
    assert total.denominator == 1
    return int(total)


def test_halphen_on_hand_counted_pairs():
    # (t^2, t^3) against (s^3, s^4): min(2 * 4, 3 * 3) = 8
    assert halphen(mk({2: 1}, {3: 1}, 9), mk({3: 1}, {4: 1}, 9)) == 8
    # (t^2, t^3) against (t^2, t^3 + t^4): y^2 - x^3 is 2 t^7 + t^8
    assert halphen(mk({2: 1}, {3: 1}, 12), mk({2: 1}, {3: 1, 4: 1}, 12)) == 7
    # t -> i t is a reparametrisation of (t^4, t^6 + t^7) itself
    same = mk({4: 1}, {6: -1, 7: GR.of(0, -1)}, 7)
    assert halphen(mk({4: 1}, {6: 1, 7: 1}, 7), same) is None


def _shared_p0_p1_models():
    models = [p for p in cusps.enumerate_cusp_types(12) if p.p0 >= 4]
    return [
        (p, q) for i, p in enumerate(models) for q in models[i + 1 :]
        if p.exponents[:2] == q.exponents[:2]
    ]


def test_norm_equals_halphen_on_monomial_models_with_shared_terms():
    # min(a d, b c) covers coprime monomial pairs only; these pairs share
    # (p0, p1), so the norm's conjugate factors cancel shared leading terms
    pairs = _shared_p0_p1_models()
    assert len(pairs) == 5
    for p, q in pairs:
        b1, b2 = branches.branch_from_cusp_type(p), branches.branch_from_cusp_type(q)
        expected = halphen(b1, b2)
        assert expected is not None
        assert branches.intersection_multiplicity(b1, b2) == expected, (p, q)
        assert branches.intersection_multiplicity(b2, b1) == expected, (p, q)
    b1, b2 = (branches.branch_from_cusp_type(CuspType(p)) for p in ((4, 6, 7), (4, 6, 9)))
    assert halphen(b1, b2) == 26  # 8 root pairs meet to order 7/4, 8 to 3/2


@st.composite
def puiseux_branches(draw, n):
    """(t^n, y(t)) with y exponents in (n, 12] and T up to 14."""
    exps = draw(st.sets(st.integers(n + 1, 12), min_size=1, max_size=5))
    y = {e: draw(small_gaussians.filter(bool)) for e in exps}
    return mk({n: 1}, y, max(exps) + draw(st.integers(0, 2)))


@st.composite
def puiseux_pairs(draw):
    """Independent pairs with n, m <= 6, and pairs whose second branch is the
    first one under t -> u s^j (u^n = 1, n j <= 6), cut at a drawn order and
    given up to two new terms."""
    n = draw(st.integers(1, 6))
    b1 = draw(puiseux_branches(n))
    if draw(st.booleans()):
        return b1, draw(puiseux_branches(draw(st.integers(1, 6))))
    j = draw(st.integers(1, 6 // n))
    u = draw(st.sampled_from([v for v in _UNITS if v ** n == GR.of(1)]))
    cut = draw(st.integers(n + 1, b1.truncation_order))
    y = {p * j: vec[1] * u ** p for p, vec in b1.terms if vec[1] and p <= cut}
    y.update({
        e: draw(small_gaussians)
        for e in draw(st.sets(st.integers(n * j + 1, 12 * j), max_size=2))
    })
    y = {e: c for e, c in y.items() if c}
    assume(y)
    t2 = max(y) + draw(st.integers(0, 2))
    return b1, mk({n * j: 1}, y, t2)


@settings(max_examples=100, deadline=None)
@given(puiseux_pairs())
def test_norm_agrees_with_halphen(pair):
    norm, expected = _norm(*pair), halphen(*pair)
    if norm is not None:
        assert norm == expected
    if expected is None:
        assert norm is None
