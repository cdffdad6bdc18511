"""Certificate failure records: what a failing suite serialises, the formula
anchor each suite names, and that a passing suite formats no failure key.
The domains the fixed-size suites cover."""

import itertools

import pytest

from pseudocurve import branches, cusps, cylinders, indices, residues, verify
from pseudocurve.gaussian import GaussianRational

ANCHOR_SADDLE = "inertia of Re Res_0 z^(l-k) P(z) (sum w_i z^i)^2: ind+ = ind- = k - l"
ANCHOR_COSH = "single-mode three-band ratio = 1/cosh(2m)"
VERSIONS = {"package": "0.1.0", "format": 1}

# Pinned from the certificate code before failures were sorted only in to_json.
SADDLE_WRONG_AT_K2 = {
    "suite": "saddle",
    "cases_run": 63,
    "cases_failed": 5,
    "failures": [
        {
            "input": "k=2 l=0 case=0 P=['-1/2+6/5i', '-7/6']",
            "expected": "(2, 2, 2)",
            "got": "(3, 3, 0)",
            "anchor": ANCHOR_SADDLE,
        },
        {
            "input": "k=2 l=0 case=0 P=['-1/2+6/5i', '-7/6'] a0-equivalence",
            "expected": "True",
            "got": "False",
            "anchor": ANCHOR_SADDLE,
        },
        {
            "input": "k=2 l=0 case=0 P=['-1/2+6/5i', '-7/6'] s_ind",
            "expected": "2",
            "got": "3",
            "anchor": ANCHOR_SADDLE,
        },
        {
            "input": "k=2 l=1 case=0 P=['1/3-1i']",
            "expected": "(1, 1, 4)",
            "got": "(2, 2, 0)",
            "anchor": ANCHOR_SADDLE,
        },
        {
            "input": "k=2 l=1 case=0 P=['1/3-1i'] s_ind",
            "expected": "1",
            "got": "2",
            "anchor": ANCHOR_SADDLE,
        },
    ],
    "seed": 0,
    "versions": VERSIONS,
}

COSH_RATIO_1E6 = {
    "suite": "cosh",
    "cases_run": 6,
    "cases_failed": 6,
    "failures": [
        {
            "input": f"m={m} k={k}",
            "expected": "<= 1e-12",
            "got": got,
            "anchor": ANCHOR_COSH,
        }
        for m, got in ((1, "999999.7341977712"), (2, "999999.9633810065"))
        for k in (1.0, 4.0, 7.0)
    ],
    "seed": 0,
    "versions": VERSIONS,
}


def _assert_failure_record(cert):
    assert cert.passed is False
    assert cert.cases_failed == len(cert.failures) > 0
    inputs = [f["input"] for f in cert.to_json()["failures"]]
    assert inputs == sorted(inputs)


def test_certificate_accumulates_cases():
    cert = verify.VerificationCertificate("delta", "anchor text", seed=3)
    other = verify.VerificationCertificate("delta", "anchor text")
    assert cert.failures == other.failures == [] and cert.failures is not other.failures
    assert cert.passed is False  # no case run proves nothing
    outcomes = [
        cert.check("b", 1, 1), cert.check("a", 1, 2), cert.check_le(lambda: "c", 0.5, 1.0),
        cert.check_le(lambda: "d", 2.0, 1.0),
    ]
    assert outcomes == [True, False, True, False]
    assert (cert.cases_run, cert.cases_failed, other.cases_run) == (4, 2, 0)
    assert not cert.passed and other.failures == []
    assert cert.to_json() == {
        "suite": "delta",
        "cases_run": 4,
        "cases_failed": 2,
        "failures": [
            {"input": "a", "expected": "1", "got": "2", "anchor": "anchor text"},
            {"input": "d", "expected": "<= 1.0", "got": "2.0", "anchor": "anchor text"},
        ],
        "seed": 3,
        "versions": VERSIONS,
    }


def test_failing_saddle_certificate_is_pinned(monkeypatch):
    real_inertia = residues.inertia

    def wrong_at_k2(form):
        # at k = 2 the answer grows with the coefficient count, so the
        # a0-equivalence case fails for l = 0 and passes for l = 1
        if form.k != 2:
            return real_inertia(form)
        n = len(form.coefficients)
        return residues.InertiaResult(n + 1, n + 1, 0)

    monkeypatch.setattr(residues, "inertia", wrong_at_k2)
    monkeypatch.setattr(verify, "_SADDLE_CASES", 1)
    cert = verify.suite_saddle(seed=0)
    _assert_failure_record(cert)
    recorded = [f["input"] for f in cert.failures]
    assert recorded != sorted(recorded)  # s_ind runs before a0-equivalence
    assert cert.to_json() == SADDLE_WRONG_AT_K2


def test_failing_check_le_certificate_is_pinned(monkeypatch):
    monkeypatch.setattr(cylinders, "three_band_ratio", lambda u, k: 1e6)
    cert = verify.suite_cosh()
    _assert_failure_record(cert)
    assert cert.to_json() == COSH_RATIO_1E6


def test_passing_saddle_formats_no_failure_key(monkeypatch):
    calls = []
    real_str = GaussianRational.__str__

    def counting_str(self):
        calls.append(self)
        return real_str(self)

    monkeypatch.setattr(GaussianRational, "__str__", counting_str)
    monkeypatch.setattr(verify, "_SADDLE_CASES", 2)
    cert = verify.suite_saddle(seed=0)
    assert cert.passed and cert.cases_run == 126
    assert calls == []


def test_saddle_sweep_checks_a0_through_residues(monkeypatch):
    # the sweep's a0-equivalence case is the one residues.a0_equivalence_check
    monkeypatch.setattr(residues, "a0_equivalence_check", lambda f, result: False)
    monkeypatch.setattr(verify, "_SADDLE_CASES", 1)
    cert = verify.suite_saddle(seed=0)
    _assert_failure_record(cert)
    assert cert.cases_failed == 21  # one per (k, l) with 1 <= k <= 6, l < k
    assert all(f["input"].endswith(" a0-equivalence") for f in cert.failures)


def test_decay_suite_draws_a_hundred_maps(monkeypatch):
    failing = cylinders.DecayReport((), {}, False)
    monkeypatch.setattr(cylinders, "decay_estimate_check", lambda u, l: failing)
    cert = verify.suite_decay()
    assert sum(f["input"].endswith(" finite C") for f in cert.failures) == 100


def test_index_certificate_does_not_depend_on_the_seed():
    first = verify.suite_index(seed=0).to_json()
    second = verify.suite_index(seed=7).to_json()
    assert (first.pop("seed"), second.pop("seed")) == (0, 7)
    assert first == second
    assert first["cases_run"] == 11 and first["cases_failed"] == 0


def test_index_box_names_itself_and_counts_each_mismatch(monkeypatch):
    real = indices.moduli_projection_index

    def shifted_at_g1_n5(mu, n, g):
        return real(mu, n, g) + (2 if (g, n) == (1, 5) else 0)

    monkeypatch.setattr(indices, "moduli_projection_index", shifted_at_g1_n5)
    cert = verify.suite_index()
    # both identities fail at each of the 101 values of mu
    assert [(f["input"], f["got"]) for f in cert.failures] == [
        ("box mu=-50..50 n=2..6 g=0..25", "202")
    ]


def test_intersection_checks_every_ordered_coprime_pair_once(monkeypatch):
    built = []  # (model, exponents); holding the models keeps identity sound
    real_model = branches.branch_from_cusp_type
    real_norm = branches.intersection_multiplicity
    pairs = []

    def recording_model(p):
        model = real_model(p)
        built.append((model, tuple(p.exponents)))
        return model

    def type_of(branch):
        return next((p for model, p in built if model is branch), None)

    def recording_norm(b1, b2):
        pair = (type_of(b1), type_of(b2))
        if None not in pair:
            pairs.append(pair)
        return real_norm(b1, b2)

    monkeypatch.setattr(branches, "branch_from_cusp_type", recording_model)
    monkeypatch.setattr(branches, "intersection_multiplicity", recording_norm)
    cert = verify.suite_intersection(seed=0)
    coprime = [(2, 3), (2, 5), (3, 4), (3, 5), (3, 7), (4, 5), (4, 7), (4, 9)]
    assert sorted(pairs) == sorted(itertools.permutations(coprime, 2))
    assert cert.passed and cert.cases_run == 65


def test_feasibility_checks_the_closed_form_against_the_knapsack(monkeypatch):
    real = indices.cp2_multiple_component_obstruction
    knapsack_degrees = []

    def recording(d, all_splittings=False):
        if all_splittings:
            knapsack_degrees.append(d)
        return real(d, all_splittings)

    monkeypatch.setattr(indices, "cp2_multiple_component_obstruction", recording)
    cert = verify.suite_feasibility()
    assert knapsack_degrees == list(range(1, 15))
    assert cert.passed and cert.cases_run == 9 + 28


# The formula anchor each suite's certificate names, from the suite's module.
SUITE_ANCHORS = {
    "saddle": residues.ANCHOR_SADDLE,
    "delta": cusps.ANCHOR_DELTA,
    "feasibility": indices.ANCHOR_FEASIBILITY,
    "genus": indices.ANCHOR_GENUS,
    "index": indices.ANCHOR_INDEX,
    "cosh": cylinders.ANCHOR_COSH,
    "volume": cylinders.ANCHOR_VOLUME,
    "gluing": cylinders.ANCHOR_GLUING,
    "decay": cylinders.ANCHOR_DECAY,
    "roundtrip": branches.ANCHOR_ROUNDTRIP,
    "intersection": branches.ANCHOR_INTERSECTION,
}


@pytest.mark.parametrize("name", sorted(verify.SUITES))
def test_certificate_names_its_suite_anchor(name):
    cert = verify.run_suite(name)
    assert cert.anchor == SUITE_ANCHORS[name]
    assert cert.passed


def test_forced_delta_failure_carries_the_delta_anchor(monkeypatch):
    real_oracle = cusps.nodal_number_oracle
    monkeypatch.setattr(cusps, "nodal_number_oracle", lambda p: real_oracle(p) + 1)
    cert = verify.run_suite("delta")
    _assert_failure_record(cert)
    # both the formula case and the delta case of every cusp type fail
    assert cert.cases_failed == cert.cases_run
    assert {f["anchor"] for f in cert.to_json()["failures"]} == {cusps.ANCHOR_DELTA}


@pytest.mark.parametrize(
    "name,module,attr",
    [("cosh", cylinders, "three_band_ratio"), ("delta", cusps, "nodal_number_oracle")],
)
def test_raising_suite_names_the_suite_function(name, module, attr, monkeypatch):
    def raising(*args, **kwargs):
        raise RuntimeError("forced")

    monkeypatch.setattr(module, attr, raising)
    cert = verify.run_suite(name)
    assert cert.anchor == f"suite_{name}"
    assert cert.to_json()["failures"] == [{
        "input": "suite raised",
        "expected": "no exception",
        "got": "RuntimeError('forced')",
        "anchor": f"suite_{name}",
    }]
    assert cert.cases_run == 1 and not cert.passed
