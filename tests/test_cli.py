"""CLI behavior: outputs, exit codes, determinism."""

import argparse
import json
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudocurve import cli


def run(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(argv, capsys):
    code, out, err = run(argv, capsys)
    return code, json.loads(out) if out.strip() else None, err


def test_feasibility_anchor_output(capsys):
    code, payload, _ = run_json(["feasibility", "--cp2-degree", "6"], capsys)
    assert code == 0
    assert payload == {"obstructed": True, "worst_count": 16, "required": 17}


ANCHOR = {"feasibility": "max over splittings of sum d_i(d_i+3)/2 vs required 3d - 1"}


@pytest.mark.parametrize(
    "degree,extra,worst_count,splitting",
    [
        (1, [], 0, []),
        (2, [], 2, [[1, 2]]),
        (3, [], 4, [[1, 1], [1, 2]]),
        (6, [], 16, [[4, 1], [1, 2]]),
        # the exhaustive check keeps its own enumeration order
        (3, ["--all-splittings"], 4, [[1, 2], [1, 1]]),
    ],
)
def test_feasibility_json_payload(degree, extra, worst_count, splitting, capsys):
    argv = ["feasibility", "--cp2-degree", str(degree), "--json"] + extra
    code, out, err = run(argv, capsys)
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "anchors": ANCHOR,
        "obstructed": True,
        "required": 3 * degree - 1,
        "worst_count": worst_count,
        "worst_splitting": splitting,
    }


# Stdout of `feasibility --cp2-degree d --all-splittings` for d = 1..14, as
# the exhaustive multiset enumeration printed it; with --json each line is
# JSON_HEAD followed by the matching line of JSON_TAILS.
PLAIN_PINS = """\
{"obstructed": true, "required": 2, "worst_count": 0}
{"obstructed": true, "required": 5, "worst_count": 2}
{"obstructed": true, "required": 8, "worst_count": 4}
{"obstructed": true, "required": 11, "worst_count": 7}
{"obstructed": true, "required": 14, "worst_count": 11}
{"obstructed": true, "required": 17, "worst_count": 16}
{"obstructed": false, "required": 20, "worst_count": 22}
{"obstructed": false, "required": 23, "worst_count": 29}
{"obstructed": false, "required": 26, "worst_count": 37}
{"obstructed": false, "required": 29, "worst_count": 46}
{"obstructed": false, "required": 32, "worst_count": 56}
{"obstructed": false, "required": 35, "worst_count": 67}
{"obstructed": false, "required": 38, "worst_count": 79}
{"obstructed": false, "required": 41, "worst_count": 92}
""".splitlines()
JSON_HEAD = (
    '{"anchors": {"feasibility": '
    '"max over splittings of sum d_i(d_i+3)/2 vs required 3d - 1"}, '
)
JSON_TAILS = """\
"obstructed": true, "required": 2, "worst_count": 0, "worst_splitting": []}
"obstructed": true, "required": 5, "worst_count": 2, "worst_splitting": [[1, 2]]}
"obstructed": true, "required": 8, "worst_count": 4, "worst_splitting": [[1, 2], [1, 1]]}
"obstructed": true, "required": 11, "worst_count": 7, "worst_splitting": [[2, 1], [1, 2]]}
"obstructed": true, "required": 14, "worst_count": 11, "worst_splitting": [[3, 1], [1, 2]]}
"obstructed": true, "required": 17, "worst_count": 16, "worst_splitting": [[4, 1], [1, 2]]}
"obstructed": false, "required": 20, "worst_count": 22, "worst_splitting": [[5, 1], [1, 2]]}
"obstructed": false, "required": 23, "worst_count": 29, "worst_splitting": [[6, 1], [1, 2]]}
"obstructed": false, "required": 26, "worst_count": 37, "worst_splitting": [[7, 1], [1, 2]]}
"obstructed": false, "required": 29, "worst_count": 46, "worst_splitting": [[8, 1], [1, 2]]}
"obstructed": false, "required": 32, "worst_count": 56, "worst_splitting": [[9, 1], [1, 2]]}
"obstructed": false, "required": 35, "worst_count": 67, "worst_splitting": [[10, 1], [1, 2]]}
"obstructed": false, "required": 38, "worst_count": 79, "worst_splitting": [[11, 1], [1, 2]]}
"obstructed": false, "required": 41, "worst_count": 92, "worst_splitting": [[12, 1], [1, 2]]}
""".splitlines()


@pytest.mark.parametrize("d", range(1, 15))
def test_all_splittings_stdout_is_pinned(d, capsys):
    argv = ["feasibility", "--cp2-degree", str(d), "--all-splittings"]
    assert run(argv, capsys) == (0, PLAIN_PINS[d - 1] + "\n", "")
    want = JSON_HEAD + JSON_TAILS[d - 1] + "\n"
    assert run(argv + ["--json"], capsys) == (0, want, "")


def test_all_splittings_at_degree_sixty_is_fast(capsys):
    # far beyond the reach of enumerating every multiset
    start = time.perf_counter()
    code, payload, err = run_json(
        ["feasibility", "--cp2-degree", "60", "--all-splittings", "--json"], capsys
    )
    assert time.perf_counter() - start < 1.0
    assert (code, err) == (0, "")
    assert payload["worst_count"] == 58 * 61 // 2 + 2
    assert payload["worst_splitting"] == [[58, 1], [1, 2]]


def _subcommands():
    parser = cli.build_parser()
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


@pytest.mark.parametrize("command", sorted(_subcommands()))
def test_every_subcommand_accepts_json(command):
    subparser = _subcommands()[command]
    argv = [command, "--json"]
    for action in subparser._actions:
        if action.required:
            argv += [action.option_strings[0], "1"]
    assert cli.build_parser().parse_args(argv).json is True
    assert subparser.format_usage().rstrip().endswith("[--json]")


def _readme_command_lines():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Command line", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line for line in block.splitlines() if line.strip()]


@pytest.mark.parametrize("line", _readme_command_lines())
def test_readme_command_lines_run(line, capsys):
    argv = shlex.split(line)
    assert argv[0] == "pseudocurve"
    code, out, err = run(argv[1:], capsys)
    assert code == 0, err
    json.loads(out)


def test_cusp_command(capsys):
    code, payload, _ = run_json(["cusp", "--type", "4,6,7", "--json"], capsys)
    assert code == 0
    assert payload["divisors"] == [4, 2, 1]
    assert payload["delta"] == 8
    assert payload["delta_formula_verbatim"] == 16
    assert payload["bennequin"] == 15
    assert payload["admissible"]["exponents"] == [4, 6, 7]


def test_cusp_rejects_non_cusp_type(capsys):
    code, out, err = run(["cusp", "--type", "2,4"], capsys)
    assert code == 1
    assert out == ""
    assert "not a cusp type" in json.loads(err)["error"]


def test_unknown_flag_exits_64(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["cusp", "--type", "2,3", "--bogus"])
    assert excinfo.value.code == 64


def test_unknown_subcommand_exits_64(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["frobnicate"])
    assert excinfo.value.code == 64


def test_index_command(capsys):
    code, payload, _ = run_json(
        ["index", "--mu", "18", "--n", "2", "--genus", "10", "--marked", "17",
         "--json"],
        capsys,
    )
    assert code == 0
    assert payload["marked_moduli_index"] == 20
    assert payload["moduli_projection_index"] == 54
    assert payload["gromov_operator_index"] == 0
    assert payload["teichmueller_dim_complex"] == 27
    assert payload["cusp_count_bounds"] == {
        "lower": 1, "upper": 10, "contradictory": False,
    }


def test_index_complex_flag(capsys):
    code, payload, _ = run_json(
        ["index", "--mu", "3", "--n", "2", "--genus", "0", "--complex"], capsys
    )
    assert code == 0
    assert payload["moduli_projection_index"] == 2  # half of 4


def test_index_h1_extension(capsys):
    code, payload, _ = run_json(
        ["index", "--mu", "18", "--n", "2", "--genus", "10",
         "--k-total", "18", "--h1", "1"],
        capsys,
    )
    assert code == 0
    assert payload["h0_from_h1"] == 19
    assert payload["h1_stratum_codim"] == 19
    assert payload["stratum_empty"] is False


def test_saddle_command(capsys):
    code, payload, _ = run_json(
        ["saddle", "--k", "3", "--l", "1", "--poly", "2,-1,0"], capsys
    )
    assert code == 0
    assert payload["inertia"] == {
        "ind_plus": 2, "ind_minus": 2, "nullity": 4, "s_ind": 2,
    }
    assert payload["matches"] is True
    assert payload["a0_equivalent"] is True
    assert len(payload["matrix"]) == 8
    assert payload["poly"] == [["2", "0"], ["-1", "0"]]


def test_saddle_rejects_bad_degree(capsys):
    code, out, err = run(["saddle", "--k", "2", "--l", "1", "--poly", "1,2"], capsys)
    assert code == 1
    assert "deg P" in json.loads(err)["error"]


def test_node_volume(capsys):
    code, payload, _ = run_json(
        ["node", "--lambda", "0.1+0i", "--check", "volume", "--grid", "200"],
        capsys,
    )
    assert code == 0
    assert payload["passed"] is True
    assert payload["max_residual"] < 1e-10


def test_node_gluing(capsys):
    code, payload, _ = run_json(
        ["node", "--lambda", "0.1", "--check", "gluing", "--grid", "500"], capsys
    )
    assert code == 0
    assert payload["inverse_pair_residual"] < 1e-12
    assert abs(payload["endpoints"]["R(1)"] - 1.0) < 1e-14


def test_node_metric_and_radius(capsys):
    code, payload, _ = run_json(
        ["node", "--lambda", "0.1", "--check", "metric", "--z", "1.0+0i"], capsys
    )
    assert code == 0
    assert abs(payload["density"] - 1.01) < 1e-15
    code, payload, _ = run_json(
        ["node", "--lambda", "0.1", "--check", "radius"], capsys
    )
    assert code == 0
    assert abs(payload["radius_log"] - 2.302585092994046) < 1e-12


def test_node_domain_error(capsys):
    code, out, err = run(["node", "--lambda", "2.0", "--check", "volume"], capsys)
    assert code == 1


def test_decay_command(capsys):
    code, payload, _ = run_json(
        ["decay", "--modes", "1:1,0,0;2:0,1,0", "--length", "10", "--json"],
        capsys,
    )
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["band_energies"]) == 10
    assert payload["three_term"]["kept_modes"] == [1]


# Stdout of `decay --length 10 --k K --modes M --json` for K = 1, 3, 7, pinned
# byte for byte.  Per map: band energies, constants, the printed modes, the
# kept modes of the three-term truncation and its remainder at each K.  The
# maps cover zero energies, a fit without sharp_rate4 and two fits with it.
DECAY_PINS = {
    '0:1,0': (
        '[0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0]',
        '{"shape": 0.0}',
        '[[0, [[1.0, 0.0]]]]',
        '[0]',
        ('0.0', '0.0', '0.0'),
    ),
    '1:1,0;-1:0.3,-0.7': (
        (
            '[28.71615022038168, 172.77687762619075, 1271.324698827896, '
            '9393.16773017082, 69406.54562132107, 512848.8460088963, '
            '3789468.8916424443, 28000598.22525644, 206897991.09000507, '
            '1528780862.9200966]'
        ),
        '{"shape": 6.5082590209481435}',
        '[[-1, [[0.3, -0.7]]], [1, [[1.0, 0.0]]]]',
        '[-1, 1]',
        ('0.0', '0.0', '0.0'),
    ),
    '2:1,0;-3:0.5,0.25': (
        (
            '[2382.837474313884, 956328.691179181, 385810438.91609764, '
            '155647039887.1544, 62792497512390.3, 2.5332301511819188e+16, '
            '1.0219779835307403e+19, 4.1229534487194496e+21, '
            '1.663318135443599e+24, 6.71030428576597e+26]'
        ),
        '{"shape": 0.13500065008137213, "sharp_rate4": 0.0024726231566347743}',
        '[[-3, [[0.5, 0.25]]], [2, [[1.0, 0.0]]]]',
        '[]',
        ('1004.7179099637975', '405332.0831844711', '65969738654.11892'),
    ),
    '3:0.1,0.2;4:0.3,0.4;-2:1,1': (
        (
            '[1354.2896542815495, 73547.44896309605, 4015554.410772338, '
            '219241842.18524826, 11970198993.173117, 653550720555.8579, '
            '35682660295178.25, 1948207240377861.2, 1.0636851120580837e+17, '
            '5.807523933616909e+18]'
        ),
        '{"shape": 0.9820137900379087, "sharp_rate4": 0.017986209962091562}',
        '[[-2, [[1.0, 1.0]]], [3, [[0.1, 0.2]]], [4, [[0.3, 0.4]]]]',
        '[]',
        ('287.64714447411734', '15705.001510932887', '46815949.6905178'),
    ),
}
DECAY_HEAD = (
    '{"anchors": {"decay": "e_k <= C(e^{-2k} E_head + e^{-2(l-k)} E_tail), '
    'high modes <= 1/cosh 4"}, '
)
GAMMAS = '"gamma_2": 0.03661899347368653, "gamma_star": 0.2658022288340797, '


@pytest.mark.parametrize("k", (1, 3, 7))
@pytest.mark.parametrize("modes", sorted(DECAY_PINS))
def test_decay_stdout_is_pinned(modes, k, capsys):
    energies, constants, printed, kept, remainders = DECAY_PINS[modes]
    remainder = remainders[(1, 3, 7).index(k)]
    want = (
        f'{DECAY_HEAD}"band_energies": {energies}, "constants": {constants}, '
        f'{GAMMAS}"length": 10, "modes": {printed}, "passed": true, '
        f'"three_term": {{"band": {k}, "kept_modes": {kept}, '
        f'"remainder_l12_norm": {remainder}}}}}\n'
    )
    argv = ["decay", "--length", "10", "--k", str(k), "--modes", modes, "--json"]
    assert run(argv, capsys) == (0, want, "")


# Stdout of `node --lambda L --check C` (default grid and sample point) for
# the cases of NODE_CASES in order, pinned byte for byte.
NODE_CASES = [
    (lam, check)
    for lam in ("0.1+0i", "0.3-0.1i", "0.01")
    for check in ("volume", "gluing", "radius", "metric")
]
NODE_PINS = """\
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["0.1", "0.0"], "max_residual": 3.3306690738754696e-15, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 0.10000000000000005, "R(0)": 0.31622776601683794, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 5.551115123125783e-15, "lambda": ["0.1", "0.0"], "passed": true}
{"check": "radius", "convention": "radius_log = log(1/|lambda|)", "lambda": ["0.1", "0.0"], "radius_log": 2.302585092994046}
{"check": "metric", "density": 1.1600000000000001, "lambda": ["0.1", "0.0"], "z_plus": ["0.5", "0.0"]}
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["0.3", "-0.1"], "max_residual": 4.996003610813204e-16, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 0.316227766016838, "R(0)": 0.5623413251903491, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 1.1102230246251565e-15, "lambda": ["0.3", "-0.1"], "passed": true}
{"check": "radius", "convention": "radius_log = log(1/|lambda|)", "lambda": ["0.3", "-0.1"], "radius_log": 1.1512925464970227}
{"check": "metric", "density": 2.6, "lambda": ["0.3", "-0.1"], "z_plus": ["0.5", "0.0"]}
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["0.01", "0.0"], "max_residual": 3.640976409258201e-13, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 0.009999999999999449, "R(0)": 0.1, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 4.716227408607665e-13, "lambda": ["0.01", "0.0"], "passed": true}
{"check": "radius", "convention": "radius_log = log(1/|lambda|)", "lambda": ["0.01", "0.0"], "radius_log": 4.605170185988092}
{"check": "metric", "density": 1.0016, "lambda": ["0.01", "0.0"], "z_plus": ["0.5", "0.0"]}
""".splitlines()


@pytest.mark.parametrize(
    "lam,check,want",
    [case + (pin,) for case, pin in zip(NODE_CASES, NODE_PINS)],
    ids=[f"{lam}-{check}" for lam, check in NODE_CASES],
)
def test_node_stdout_is_pinned(lam, check, want, capsys):
    argv = ["node", "--lambda", lam, "--check", check]
    assert run(argv, capsys) == (0, want + "\n", "")


def test_branch_command_monomial(capsys):
    code, payload, _ = run_json(["branch", "--type", "2,3"], capsys)
    assert code == 0
    assert payload["multiplicity"] == 2
    assert payload["cusp_type"] == [2, 3]
    assert payload["jet"] == {"k": 1, "l": 0, "P1": [["1", "0"]], "P2": [["1", "0"]]}
    assert payload["ordinary_cusp"] is True
    assert payload["delta"] == 1
    assert payload["bennequin"] == 1


def test_branch_command_file_and_intersection(tmp_path, capsys):
    branch_file = tmp_path / "branch.json"
    payload = {
        "ambient_dim": 2,
        "truncation_order": 8,
        "terms": [
            {"exp": 1, "coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]]},
            {"exp": 2, "coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]]},
        ],
    }
    branch_file.write_text(json.dumps(payload))
    code, out, _ = run_json(
        ["branch", "--file", str(branch_file), "--other-type", "2,3"], capsys
    )
    assert code == 0
    assert out["multiplicity"] == 1
    # the parabola and the cusp share the tangent line: contact order 3
    assert out["intersection_multiplicity"] == 3


@pytest.mark.parametrize(
    "payload",
    [
        {"ambient_dim": 2, "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [["1", "0", "0", "1"], ["0", "1", "0", "1"]]},
                   {"exp": 3, "coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]]}]},
        {"ambient_dim": 2, "truncation_order": 3, "terms": [{"exp": 2}]},
        {"ambient_dim": 2, "truncation_order": 3, "terms": 5},
        [1, 2],
        # numbers that are not integers are rejected, not truncated
        {"ambient_dim": 2.9, "truncation_order": 3.7,
         "terms": [{"exp": 2.2, "coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]]}]},
        {"ambient_dim": 2, "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [[1.5, "1", "0", "1"], ["0", "1", "0", "1"]]}]},
        {"ambient_dim": True, "truncation_order": 3,
         "terms": [{"exp": 2, "coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]]}]},
    ],
)
def test_branch_file_malformed_gives_json_error(payload, tmp_path, capsys):
    branch_file = tmp_path / "branch.json"
    branch_file.write_text(json.dumps(payload))
    code, out, err = run(["branch", "--file", str(branch_file)], capsys)
    assert code == 1
    assert out == ""
    assert "error" in json.loads(err)


_quad_parts = st.one_of(st.integers(-3, 3), st.sampled_from(["0", "1", "-2", "x", ""]))
_terms = st.fixed_dictionaries(
    {"exp": st.integers(-1, 8), "coeff": st.lists(st.lists(_quad_parts, max_size=5), max_size=3)}
)
_branch_like = st.fixed_dictionaries(
    {"ambient_dim": st.integers(0, 3), "truncation_order": st.integers(-1, 9),
     "terms": st.lists(_terms, max_size=4)}
)


_quads = st.tuples(*[st.integers(-3, 3)] * 4).map(
    lambda q: [str(q[0]), str(q[1] or 1), str(q[2]), str(q[3] or 1)]
)


@st.composite
def _valid_branch_payloads(draw):
    n = draw(st.integers(2, 3))
    exps = sorted(draw(st.sets(st.integers(1, 8), min_size=1, max_size=4)))
    return {
        "ambient_dim": n,
        "truncation_order": exps[-1] + draw(st.integers(0, 3)),
        "terms": [{"exp": e, "coeff": draw(st.lists(_quads, min_size=n, max_size=n))}
                  for e in exps],
    }


_json_values = st.recursive(
    st.one_of(st.none(), st.booleans(), st.integers(-5, 9), st.text(max_size=3)),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(
            st.sampled_from(["ambient_dim", "truncation_order", "terms", "exp", "coeff"]),
            inner,
            max_size=4,
        ),
    ),
    max_leaves=12,
)


@settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(st.one_of(_json_values, _branch_like, _valid_branch_payloads()))
def test_branch_file_never_raises(tmp_path, capsys, payload):
    branch_file = tmp_path / "branch.json"
    branch_file.write_text(json.dumps(payload))
    code, out, err = run(["branch", "--file", str(branch_file)], capsys)
    assert code in (0, 1, 64)
    if code == 0:
        assert json.loads(out)["multiplicity"] >= 1
    else:
        assert "error" in json.loads(err)


_PARABOLA = [{"exp": 1, "coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]]},
             {"exp": 2, "coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]]}]
_CUSP = [{"exp": 2, "coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]]},
         {"exp": 3, "coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]]}]


@pytest.mark.parametrize("terms", [_PARABOLA, _CUSP], ids=["parabola", "cusp"])
@pytest.mark.parametrize("other", [[], ["--other-type", "2,3"]], ids=["alone", "other"])
def test_branch_file_huge_truncation_order(terms, other, tmp_path, capsys):
    branch_file = tmp_path / "branch.json"
    branch_file.write_text(
        json.dumps({"ambient_dim": 2, "truncation_order": 10**12, "terms": terms})
    )
    start = time.perf_counter()
    code, out, err = run(["branch", "--file", str(branch_file)] + other, capsys)
    assert time.perf_counter() - start < 1.0
    assert code in (0, 1)
    if code == 0:
        assert json.loads(out)["branch"]["truncation_order"] == 10**12
    else:
        assert "error" in json.loads(err)


def test_branch_requires_source(capsys):
    code, out, err = run(["branch"], capsys)
    assert code == 1


def test_verify_single_suite(capsys):
    code, payload, _ = run_json(
        ["verify", "--suite", "cosh", "--seed", "0"], capsys
    )
    assert code == 0
    assert payload["suite"] == "cosh"
    assert payload["cases_failed"] == 0
    assert payload["versions"]["package"]


def test_verify_unknown_suite(capsys):
    code, out, err = run(["verify", "--suite", "nope"], capsys)
    assert code == 1


def test_verify_deterministic_output(capsys):
    _, first, _ = run(["verify", "--suite", "saddle", "--seed", "3",
                       "--cases", "5"], capsys)
    _, second, _ = run(["verify", "--suite", "saddle", "--seed", "3",
                        "--cases", "5"], capsys)
    assert first == second  # byte-identical
    _, third, _ = run(["verify", "--suite", "saddle", "--seed", "4",
                       "--cases", "5"], capsys)
    assert json.loads(third)["cases_run"] == json.loads(first)["cases_run"]


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--suite", "saddle", "--cases", "-3"],
        ["verify", "--suite", "all", "--cases", "0"],
        ["node", "--lambda", "0.1", "--check", "gluing", "--grid", "0"],
        ["node", "--lambda", "0.1", "--check", "volume", "--grid", "-1"],
    ],
)
def test_nonpositive_counts_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 64
    assert "must be >= 1" in capsys.readouterr().err


def test_zero_case_certificate_fails():
    from pseudocurve import verify

    cert = verify.suite_saddle(cases=0)
    assert cert.cases_run == 0
    assert not cert.passed
    assert verify.VerificationCertificate("empty").passed is False


def test_branch_monomial_pair_intersection(capsys):
    code, payload, _ = run_json(["branch", "--type", "2,3", "--other-type", "3,4"], capsys)
    assert code == 0
    assert payload["intersection_multiplicity"] == 8  # min(2*4, 3*3)


def test_branch_file_huge_stored_exponent(tmp_path, capsys):
    # (t^2, t^3 + t^(10^12)): the norm reads y only below the precision it needs
    branch_file = tmp_path / "branch.json"
    terms = _CUSP + [{"exp": 10**12, "coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]]}]
    branch_file.write_text(
        json.dumps({"ambient_dim": 2, "truncation_order": 10**12, "terms": terms})
    )
    start = time.perf_counter()
    code, payload, err = run_json(
        ["branch", "--file", str(branch_file), "--other-type", "2,5"], capsys
    )
    assert time.perf_counter() - start < 1.0
    assert code == 0, err
    assert payload["intersection_multiplicity"] == 6


# Arbitrary argv: subcommands with their flags, and small, malformed or
# missing values.  Degrees, grids and case counts stay small; verify always
# names one suite (never "all") and a case count.
_ARG_VALUES = [
    "", "x", "-1", "0", "1", "2", "3", "1/0", "2,3", "3,4", "4,6,7", "0,1", "2,",
    "0.1", "0.3-0.1i", "1+2i", "nan", "inf", "1e400", "1:1,0;2:0,1", "1:x", ";",
    "volume", "gluing", "radius", "metric", "2,-1,0",
]
_FLAGS = {  # required flags first
    "cusp": (["--type"], ["--n"]),
    "index": (["--mu", "--genus"], ["--n", "--marked", "--k-total", "--h1", "--complex"]),
    "saddle": (["--k", "--l", "--poly"], ["--nu"]),
    "node": (["--lambda"], ["--check", "--grid", "--z"]),
    "decay": (["--modes"], ["--length", "--k"]),
    "branch": ([], ["--type", "--file", "--other-type", "--other-file"]),
    "feasibility": (["--cp2-degree"], ["--all-splittings"]),
    "verify": ([], ["--seed"]),
}
_SWITCHES = {"--complex", "--all-splittings", "--json"}
_CHEAP_SUITES = ["cosh", "feasibility", "genus", "index", "intersection", "decay", "nope"]
_values = st.sampled_from(_ARG_VALUES + ["@branch", "@bad", "@missing"])


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(sorted(_FLAGS) + ["bogus", "--version"]))
    required, optional = _FLAGS.get(command, ([], []))
    flags = required + draw(st.lists(st.sampled_from(optional + ["--json"]), max_size=4))
    argv = [command]
    for flag in flags:
        argv.append(flag)
        if flag not in _SWITCHES:
            argv.append(draw(_values))
    if command == "verify":
        argv += ["--suite", draw(st.sampled_from(_CHEAP_SUITES)),
                 "--cases", draw(st.sampled_from(["1", "2", "0", "x"]))]
    tweak = draw(st.sampled_from(["none"] * 8 + ["help", "drop"]))
    if tweak == "help":
        argv.insert(draw(st.integers(1, len(argv))), "--help")
    elif tweak == "drop" and len(argv) > 1:
        argv.pop()  # a flag whose value is missing, or a dropped switch
    return argv


@settings(
    max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(_argvs())
def test_main_never_raises_on_arbitrary_argv(tmp_path, capsys, argv):
    files = {
        "@branch": tmp_path / "branch.json",
        "@bad": tmp_path / "bad.json",
        "@missing": tmp_path / "missing.json",
    }
    files["@branch"].write_text(json.dumps({"ambient_dim": 2, "truncation_order": 5,
                                            "terms": _CUSP}))
    files["@bad"].write_text("{not json")
    argv = [str(files[a]) if a in files else a for a in argv]
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        assert exc.code in (0, cli.USAGE_EXIT)
    else:
        assert code in (0, 1, 2)
    capsys.readouterr()
