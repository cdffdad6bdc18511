"""CLI behavior: outputs, exit codes, determinism."""

import argparse
import hashlib
import inspect
import json
import math
import shlex
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from pseudocurve import cli, cusps


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


@pytest.mark.parametrize("mu", ["1", "5"])
def test_index_rejects_negative_h1(mu, capsys):
    # h0 would be negative at mu = 1 and positive at mu = 5: rejected either way
    code, out, err = run(["index", "--mu", mu, "--genus", "1", "--h1", "-3"], capsys)
    assert code == 1 and out == ""
    assert json.loads(err) == {"error": "cohomology dimensions must be >= 0"}


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


def test_saddle_a0_equivalent_comes_from_residues(monkeypatch, capsys):
    from pseudocurve import residues

    monkeypatch.setattr(residues, "a0_equivalence_check", lambda f, result: False)
    code, payload, _ = run_json(
        ["saddle", "--k", "3", "--l", "1", "--poly", "2,-1,0"], capsys
    )
    assert code == 0
    assert payload["a0_equivalent"] is False


def test_cusp_and_branch_call_through_module_attributes(monkeypatch, capsys):
    """The subcommands import their modules when they run; a function patched
    on the module (as the benchmark tracer does) is still the one called."""
    from pseudocurve import branches, cusps

    monkeypatch.setattr(cusps, "nodal_number", lambda p: 1000)
    monkeypatch.setattr(branches, "intersection_multiplicity", lambda b1, b2: 999)
    code, payload, _ = run_json(["cusp", "--type", "2,3"], capsys)
    assert (code, payload["delta"], payload["bennequin"]) == (0, 1000, 1999)
    code, payload, _ = run_json(
        ["branch", "--type", "2,3", "--other-type", "3,4"], capsys
    )
    assert code == 0
    assert (payload["delta"], payload["intersection_multiplicity"]) == (1000, 999)


def test_saddle_negative_first_coefficient(capsys):
    code, payload, _ = run_json(["saddle", "--k", "3", "--l", "1", "--poly=-1,2"], capsys)
    assert code == 0
    assert payload["inertia"]["ind_plus"] == payload["inertia"]["ind_minus"] == 2
    assert payload["poly"] == [["-1", "0"], ["2", "0"]]


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


@pytest.mark.parametrize(
    "check,residual,bound",
    [
        ("volume", "volume_identity_residual", "VOLUME_TOLERANCE"),
        ("gluing", "gluing_inverse_residual", "gluing_tolerance"),
    ],
)
def test_node_and_verify_share_each_bound(check, residual, bound, monkeypatch, capsys):
    # a residual at the bound passes both, and the next float above at
    # lambda = 0.1 fails both; the gluing bound is a function of lambda
    from pseudocurve import cylinders, verify

    limit = getattr(cylinders, bound)
    at = limit if callable(limit) else lambda lam: limit
    for nudge, passed in ((lambda b: b, True), (lambda b: math.nextafter(b, 1.0), False)):
        monkeypatch.setattr(
            cylinders, residual, lambda lam, grid: nudge(at(lam)) if lam == 0.1 else at(lam)
        )
        code, payload, _ = run_json(["node", "--lambda", "0.1", "--check", check], capsys)
        assert (code, payload["passed"]) == ((0, True) if passed else (2, False))
        assert verify.run_suite(check).passed is passed


@pytest.mark.parametrize("lam", ["0.9999", "0.99999"])
def test_node_gluing_passes_near_the_unit_circle(lam, capsys):
    # the residual grows like 1 / (1 - |lambda|), and so does the bound
    code, payload, _ = run_json(["node", "--lambda", lam, "--check", "gluing"], capsys)
    assert code == 0 and payload["passed"] is True
    assert payload["inverse_pair_residual"] > 1e-12


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


@pytest.mark.parametrize(
    "argv,bad",
    [
        (["decay", "--modes", "2.5:1,0"], "2.5:1,0"),
        (["decay", "--modes", "x"], "x"),
        (["decay", "--modes", "1:nan,0"], "1:nan,0"),
        (["decay", "--modes", "1:1e400,0"], "1:1e400,0"),
        (["node", "--lambda", "nan"], "nan"),
        (["node", "--lambda", "0.1", "--check", "metric", "--z", "nan"], "nan"),
    ],
    ids=["modes-2.5", "modes-x", "modes-nan", "modes-1e400", "lambda-nan", "z-nan"],
)
def test_malformed_or_non_finite_numbers_give_json_errors(argv, bad, capsys):
    code, out, err = run(argv, capsys)
    assert code == 1 and out == ""
    assert "Traceback" not in err
    message = json.loads(err)["error"]
    assert repr(bad) in message
    if argv[0] == "decay":
        assert "--modes" in message


@pytest.mark.parametrize(
    "argv",
    [
        ["decay", "--modes=1:1e200,0"],
        ["decay", "--modes=-1000:1,0"],
        ["decay", "--modes=-36:1,0;2:1,0"],
        ["decay", "--modes=1:1e154,0"],
        ["decay", "--modes=-30:1e150,0"],
        ["node", "--lambda", "0.1", "--check", "metric", "--z", "1e-200"],
        ["node", "--lambda", "1e-160", "--check", "volume"],
        ["node", "--lambda", "1e-160", "--check", "gluing"],
    ],
    ids=[
        "norm-overflow", "integral-overflow", "integral-overflow-late",
        "energy-overflow", "energy-overflow-mode-30", "density-overflow",
        "volume-tiny-lambda", "gluing-tiny-lambda",
    ],
)
def test_finite_inputs_beyond_double_range_give_json_domain_errors(argv, capsys):
    code, out, err = run(argv, capsys)
    assert (code, out) == (1, "")
    assert "Traceback" not in err
    assert "double" in json.loads(err)["error"]


@pytest.mark.parametrize(
    "lam,z,density",
    [("1e-150", "1e-90", 1e60), ("0", "1e-200", 1.0), ("0.1", "1e100", 1.0)],
)
def test_metric_density_at_extreme_sample_points(lam, z, density, capsys):
    argv = ["node", "--lambda", lam, "--check", "metric", "--z", z]
    code, payload, err = run_json(argv, capsys)
    assert (code, err) == (0, "")
    assert math.isclose(payload["density"], density, rel_tol=1e-15)


def test_decay_command(capsys):
    code, payload, _ = run_json(
        ["decay", "--modes", "1:1,0,0;2:0,1,0", "--length", "10", "--json"],
        capsys,
    )
    assert code == 0
    assert payload["passed"] is True
    assert len(payload["band_energies"]) == 10
    assert payload["three_term"]["kept_modes"] == [1]


def test_decay_of_a_constant_map_passes_vacuously(capsys):
    # mode 0 has no energy on any band, so the fit has nothing to bound
    code, payload, err = run_json(["decay", "--modes", "0:1,0", "--length", "10"], capsys)
    assert (code, err) == (0, "")
    assert payload["passed"] is True
    assert payload["constants"] == {"shape": 0.0}
    assert payload["band_energies"] == [0.0] * 10


def test_decay_mode_beyond_a_double_is_a_json_error(capsys):
    mode = "1" + "0" * 400
    assert run(["decay", f"--modes={mode}:1,0"], capsys) == (
        1, "", json.dumps({"error": f"mode {mode} overflows a double on Z(0, 1)"}) + "\n"
    )


def test_decay_negative_first_mode_is_joined_with_equals(capsys):
    code, payload, _ = run_json(["decay", "--modes=-1:1,0", "--length", "10"], capsys)
    assert code == 0
    assert payload["modes"] == [[-1, [[1.0, 0.0]]]]
    with pytest.raises(SystemExit) as exc:
        cli.main(["decay", "--help"])
    assert exc.value.code == 0
    # argparse may wrap the help text anywhere, so compare without whitespace
    assert "--modes=-1:1,0" in "".join(capsys.readouterr().out.split())


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
] + [
    (lam, check)
    for lam in ("0.001", "0.0001", "1e-6", "1e-100")
    for check in ("volume", "gluing")
]
NODE_PINS = """\
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["0.1", "0.0"], "max_residual": 3.3306690738754696e-16, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 0.1, "R(0)": 0.31622776601683794, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 2.220446049250313e-16, "lambda": ["0.1", "0.0"], "passed": true}
{"check": "radius", "convention": "radius_log = log(1/|lambda|)", "lambda": ["0.1", "0.0"], "radius_log": 2.302585092994046}
{"check": "metric", "density": 1.1600000000000001, "lambda": ["0.1", "0.0"], "z_plus": ["0.5", "0.0"]}
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["0.3", "-0.1"], "max_residual": 2.220446049250313e-16, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 0.31622776601683794, "R(0)": 0.5623413251903491, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 3.3306690738754696e-16, "lambda": ["0.3", "-0.1"], "passed": true}
{"check": "radius", "convention": "radius_log = log(1/|lambda|)", "lambda": ["0.3", "-0.1"], "radius_log": 1.1512925464970227}
{"check": "metric", "density": 2.6, "lambda": ["0.3", "-0.1"], "z_plus": ["0.5", "0.0"]}
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["0.01", "0.0"], "max_residual": 3.3306690738754696e-16, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 0.01, "R(0)": 0.1, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 3.3306690738754696e-16, "lambda": ["0.01", "0.0"], "passed": true}
{"check": "radius", "convention": "radius_log = log(1/|lambda|)", "lambda": ["0.01", "0.0"], "radius_log": 4.605170185988092}
{"check": "metric", "density": 1.0016, "lambda": ["0.01", "0.0"], "z_plus": ["0.5", "0.0"]}
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["0.001", "0.0"], "max_residual": 2.7755575615628914e-16, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 0.001, "R(0)": 0.03162277660168379, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 2.220446049250313e-16, "lambda": ["0.001", "0.0"], "passed": true}
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["0.0001", "0.0"], "max_residual": 3.3306690738754696e-16, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 0.0001, "R(0)": 0.01, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 3.3306690738754696e-16, "lambda": ["0.0001", "0.0"], "passed": true}
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["1e-06", "0.0"], "max_residual": 2.7755575615628914e-16, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 1e-06, "R(0)": 0.001, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 3.3306690738754696e-16, "lambda": ["1e-06", "0.0"], "passed": true}
{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["1e-100", "0.0"], "max_residual": 3.885780586188048e-16, "passed": true, "tolerance": 1e-10}
{"anchors": {"gluing": "rho(R(x)) = x; R(-1) = |lambda|, R(0) = sqrt(|lambda|), R(1) = 1"}, "check": "gluing", "endpoints": {"R(-1)": 1e-100, "R(0)": 1e-50, "R(1)": 1.0}, "grid": 200, "inverse_pair_residual": 2.220446049250313e-16, "lambda": ["1e-100", "0.0"], "passed": true}
""".splitlines()


@pytest.mark.parametrize(
    "lam,check,want",
    [case + (pin,) for case, pin in zip(NODE_CASES, NODE_PINS)],
    ids=[f"{lam}-{check}" for lam, check in NODE_CASES],
)
def test_node_stdout_is_pinned(lam, check, want, capsys):
    argv = ["node", "--lambda", lam, "--check", check]
    assert run(argv, capsys) == (0, want + "\n", "")


# The lambda = 0 limit map R_0 = sqrt(rho) on (0, 1], at the default grid
# and at a coarse one.
NODE_LIMIT_PINS = {
    "200": '{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) '
    'drho dtheta"}, "check": "volume", "grid": 200, "lambda": ["0.0", "0.0"], '
    '"max_residual": 5.551115123125783e-17, "passed": true, "tolerance": 1e-10}',
    "7": '{"anchors": {"volume": "pullback of (1+|l|^2/r^4) r dr dtheta = ((1-|l|^2)/2) '
    'drho dtheta"}, "check": "volume", "grid": 7, "lambda": ["0.0", "0.0"], '
    '"max_residual": 0.0, "passed": true, "tolerance": 1e-10}',
}


@pytest.mark.parametrize("grid", sorted(NODE_LIMIT_PINS))
def test_node_limit_volume_is_pinned(grid, capsys):
    argv = ["node", "--lambda", "0", "--check", "volume", "--grid", grid]
    assert run(argv, capsys) == (0, NODE_LIMIT_PINS[grid] + "\n", "")


# Exit code, stdout and stderr of `node --lambda L --check C` at the edges of
# the lab's lambda rule: every check needs |lambda| < 1, and gluing and
# radius also need lambda != 0.
NODE_TOO_LARGE = (1, "", '{"error": "need |lambda| < 1"}\n')
NODE_EDGE_PINS = {
    ("0", "volume"): (0, NODE_LIMIT_PINS["200"] + "\n", ""),
    ("0", "gluing"): (1, "", '{"error": "gluing check needs lambda != 0"}\n'),
    ("0", "radius"): (1, "", '{"error": "radius_log needs lambda != 0"}\n'),
    ("0", "metric"): (
        0,
        '{"check": "metric", "density": 1.0, "lambda": ["0.0", "0.0"], '
        '"z_plus": ["0.5", "0.0"]}\n',
        "",
    ),
    **{
        (lam, check): NODE_TOO_LARGE
        for lam in ("1", "1.5", "0.3+1i")
        for check in ("volume", "gluing", "radius", "metric")
    },
}


@pytest.mark.parametrize("lam,check", sorted(NODE_EDGE_PINS))
def test_node_lambda_edges_are_pinned(lam, check, capsys):
    argv = ["node", "--lambda", lam, "--check", check]
    assert run(argv, capsys) == NODE_EDGE_PINS[lam, check]


@pytest.mark.parametrize(
    "argv,want",
    [
        (["saddle", "--k", "2", "--l", "1", "--poly=1/0"],
         '{"error": "cannot parse rational \'1/0\'"}\n'),
        (["node", "--lambda", "0.1", "--check", "volume", "--grid", "1"],
         '{"error": "grid must be >= 2"}\n'),
        # the lambda rule comes before the grid rule
        (["node", "--lambda", "1.5", "--check", "volume", "--grid", "1"],
         '{"error": "need |lambda| < 1"}\n'),
    ],
)
def test_domain_faults_exit_one_with_a_json_error(argv, want, capsys):
    assert run(argv, capsys) == (1, "", want)


def test_count_options_refuse_what_is_not_an_integer(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["node", "--lambda", "0.1", "--grid", "x"])
    assert exc.value.code == 64
    assert "argument --grid: invalid int value: 'x'" in capsys.readouterr().err


# Stdout of the CUSP_ARGVS commands in order, pinned byte for byte.
CUSP_ARGVS = [
    argv
    for t in ("1", "2,5", "3,4", "4,6,7", "6,9,13", "8,12,14,15")
    for argv in (["cusp", "--type", t, "--json"], ["branch", "--type", t])
]
CUSP_PINS = """\
{"admissible": {"critical": [true], "divisors": [1], "exponents": [1], "l_prime": 0}, "anchors": {"bennequin": "beta = 2*delta - 1", "delta": "sum (d_{i-1} - d_i)(p_i - 1) = 2 * (semigroup gap count)"}, "bennequin": -1, "codim": {"cusp_stratum": 0, "cusp_type_stratum": 0}, "delta": 0, "delta_formula_verbatim": 0, "divisors": [1], "type": [1]}
{"bennequin": -1, "branch": {"ambient_dim": 2, "terms": [{"coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]], "exp": 1}], "truncation_order": 1}, "cusp_order": 0, "cusp_type": [1], "delta": 0, "jet": {"P1": [["1", "0"]], "P2": [], "k": 0, "l": 0}, "multiplicity": 1, "ordinary_cusp": false, "prepared": true}
{"admissible": {"critical": [true, false, true], "divisors": [2, 2, 1], "exponents": [2, 4, 5], "l_prime": 2}, "anchors": {"bennequin": "beta = 2*delta - 1", "delta": "sum (d_{i-1} - d_i)(p_i - 1) = 2 * (semigroup gap count)"}, "bennequin": 3, "codim": {"cusp_stratum": 2, "cusp_type_stratum": 2}, "delta": 2, "delta_formula_verbatim": 4, "divisors": [2, 1], "type": [2, 5]}
{"bennequin": 3, "branch": {"ambient_dim": 2, "terms": [{"coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]], "exp": 2}, {"coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]], "exp": 5}], "truncation_order": 5}, "cusp_order": 1, "cusp_type": [2, 5], "delta": 2, "jet": {"P1": [["1", "0"]], "P2": [], "k": 1, "l": 1}, "multiplicity": 2, "ordinary_cusp": false, "prepared": true}
{"admissible": {"critical": [true, true], "divisors": [3, 1], "exponents": [3, 4], "l_prime": 1}, "anchors": {"bennequin": "beta = 2*delta - 1", "delta": "sum (d_{i-1} - d_i)(p_i - 1) = 2 * (semigroup gap count)"}, "bennequin": 5, "codim": {"cusp_stratum": 6, "cusp_type_stratum": 0}, "delta": 3, "delta_formula_verbatim": 6, "divisors": [3, 1], "type": [3, 4]}
{"bennequin": 5, "branch": {"ambient_dim": 2, "terms": [{"coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]], "exp": 3}, {"coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]], "exp": 4}], "truncation_order": 5}, "cusp_order": 2, "cusp_type": [3, 4], "delta": 3, "jet": {"P1": [["1", "0"]], "P2": [["1", "0"]], "k": 2, "l": 0}, "multiplicity": 3, "ordinary_cusp": false, "prepared": true}
{"admissible": {"critical": [true, true, true], "divisors": [4, 2, 1], "exponents": [4, 6, 7], "l_prime": 2}, "anchors": {"bennequin": "beta = 2*delta - 1", "delta": "sum (d_{i-1} - d_i)(p_i - 1) = 2 * (semigroup gap count)"}, "bennequin": 15, "codim": {"cusp_stratum": 10, "cusp_type_stratum": 2}, "delta": 8, "delta_formula_verbatim": 16, "divisors": [4, 2, 1], "type": [4, 6, 7]}
{"bennequin": 15, "branch": {"ambient_dim": 2, "terms": [{"coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]], "exp": 4}, {"coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]], "exp": 6}, {"coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]], "exp": 7}], "truncation_order": 7}, "cusp_order": 3, "cusp_type": [4, 6, 7], "delta": 8, "jet": {"P1": [["1", "0"]], "P2": [["1", "0"], ["1", "0"]], "k": 3, "l": 1}, "multiplicity": 4, "ordinary_cusp": false, "prepared": true}
{"admissible": {"critical": [true, true, false, true], "divisors": [6, 3, 3, 1], "exponents": [6, 9, 12, 13], "l_prime": 3}, "anchors": {"bennequin": "beta = 2*delta - 1", "delta": "sum (d_{i-1} - d_i)(p_i - 1) = 2 * (semigroup gap count)"}, "bennequin": 47, "codim": {"cusp_stratum": 18, "cusp_type_stratum": 8}, "delta": 24, "delta_formula_verbatim": 48, "divisors": [6, 3, 1], "type": [6, 9, 13]}
{"bennequin": 47, "branch": {"ambient_dim": 2, "terms": [{"coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]], "exp": 6}, {"coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]], "exp": 9}, {"coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]], "exp": 13}], "truncation_order": 13}, "cusp_order": 5, "cusp_type": [6, 9, 13], "delta": 24, "jet": {"P1": [["1", "0"]], "P2": [["1", "0"]], "k": 5, "l": 2}, "multiplicity": 6, "ordinary_cusp": false, "prepared": true}
{"admissible": {"critical": [true, true, true, true], "divisors": [8, 4, 2, 1], "exponents": [8, 12, 14, 15], "l_prime": 3}, "anchors": {"bennequin": "beta = 2*delta - 1", "delta": "sum (d_{i-1} - d_i)(p_i - 1) = 2 * (semigroup gap count)"}, "bennequin": 83, "codim": {"cusp_stratum": 26, "cusp_type_stratum": 8}, "delta": 42, "delta_formula_verbatim": 84, "divisors": [8, 4, 2, 1], "type": [8, 12, 14, 15]}
{"bennequin": 83, "branch": {"ambient_dim": 2, "terms": [{"coeff": [["1", "1", "0", "1"], ["0", "1", "0", "1"]], "exp": 8}, {"coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]], "exp": 12}, {"coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]], "exp": 14}, {"coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]], "exp": 15}], "truncation_order": 15}, "cusp_order": 7, "cusp_type": [8, 12, 14, 15], "delta": 42, "jet": {"P1": [["1", "0"]], "P2": [["1", "0"], ["0", "0"], ["1", "0"], ["1", "0"]], "k": 7, "l": 3}, "multiplicity": 8, "ordinary_cusp": false, "prepared": true}
""".splitlines()


@pytest.mark.parametrize(
    "argv,want",
    list(zip(CUSP_ARGVS, CUSP_PINS)),
    ids=[f"{argv[0]}-{argv[2]}" for argv in CUSP_ARGVS],
)
def test_cusp_layer_stdout_is_pinned(argv, want, capsys):
    assert run(argv, capsys) == (0, want + "\n", "")


# sha256 of the stdout of `cusp --type T --json` and `cusp --type T --n 3
# --json`, in that order for each cusp type T of enumerate_cusp_types(30),
# concatenated; CUSP_TYPE_DIGESTS has the first 4 hex digits of the sha256 of
# each type's two lines, so that a failure names the first type that differs.
CUSP_ALL_SHA256 = "cbf724f7213ded7fe35f2e3e97e4f91133e852f33b78538c7411344b589ff657"
CUSP_TYPE_DIGESTS = """\
72eafcb9cb58e315adb38568bc5e46416781eeda651ea7b28a49dc11e3ab5c15a8e104000cac
6e03d163ec694c58d9ae2b2851918333c56a4a43a570526cb5e9c04b2a3cb2d4e5b46cfc533d
52c857e3b3d303ae6605ecea483c2707856f6df77742e0c0a892b73c269a2e79489efdba75d0
3c7b575d83c6a54b94e7219a8cb30a905f2cf3649857bf4b412237b0928633235ba7ca902dbd
c4c4af4df316e4af1e33179f6cb3936c8aed7ea1c15034e364141d8f1fe242cd8ef5df431280
f45a2aa1bfb308fd91599bbff22202e77f13d8acc0d4a64f4126432d12b7457da58aefd9acb5
53c85bc9e9c6f8f3edade0e00fef0835304450cac262291a351673d5b0f4da26f7a602b6f1e7
0d518b8ca435591a926892e84f9655ce0ba637b53f845b0c05cde9f58175175473863689ae7c
2b980c3581ace5a17e26bee02ec8425c47f17d67e0e7db1892512cadf078c6a5430dcd04de11
0a2a8c7556efcb85aaadf22f617d9daa9ca53901658c045bff6f19f1535082f06cdb3a34b5d4
b51c3a241210af16f40683ec2c74bcbbdf76728550e55f751df2030c1aa4ed4e2c5ab5f29018
29865686a5220154911d6e97daf6f03158bbd5d296129d8dd5f131cb790e484034eeaca022b6
d787e9b4e87d09be464b06593f0373281ae4ebaabf60269ac7e40bcc19583016fd38245d0d3e
f3793c7ed91cee79bd4c206cd2e5aa18a723ba4b0d4b8e85f4efeacdc5f21c39eba6ba8d7dd9
681bb572037039c0c4edbaedf097f6acab34b9b06adbbe1231cd6576e175ff445de65dc1be23
7bc42097dca5cf58affdc286ecd0a15f858ec753cfc76dabdecf308f74e032bc87ce953414fa
372c05f7ff2b73969fecc9eef16a9856682637e80ab778a8b29a02c248b67fd62c81624972c6
649cb9c2f9ee36007bd2a653d04cf1f11d198fc14507673376222724add1286e1cabd4ae295b
e31289d6ab1bb6459257b85e1ea4a4d91573a2d415d5da8a09e08d0e9046b6e53a91df233fea
fe8600fb4e6e12735ebdade8cfdfa8014c407bb83e30cefa50a429d70fafc78ae585818d7ae5
4bebfb1d6248e13682aacde9cb56afc3f61665b2f66a154e2d1c8b6bb0b471651e62158c3046
c7ed104b31389ccd3c4e2d2da2614c97eb7cdd192070eb87c1468ccb5c0938c8392e52441114
bcab1a981d72803c9e9fbf13554715f50c52d334a80b84fa6b8feaccc31d40d34d8e25727d48
4839e4838fc1399358c2daa698a0bd95715bf2b7bf0a079864692d893f96627a059572c397a9
55bb94d1f8215551591d5708de73a229993f5596e9ac0607613639b8e4aa8346133cfe89c2e8
21d8225609439e3f4f1eed555cbd9e62e5fc0fac11c8112954972676cc0ed29d1f9d71f81167
d88575de0b9ceee183f4abd9dee30eaeedad7074ce7c4a41cf72ab8c0ec8fa8ec4bd9f76816a
4bc27d874d1ed14ffd552a98971a42e331344a39acd15175b6e71b97e5700eccfe94f1a8d419
43a2d3ce95a2160d2d403017ef959f2f33cb2471deb76d5f03b7960d7be2c93f805bbedefb6c
6506933e5c1042c7f27b7bb636f60b2014674bf1859044f92d2c317261ddd6dfb83868f7fd44
7f26e0a115fe77e9c5b2e4e75f49aa1871ac45be7f27bafcf4915770bad0a46abcb38987f01a
512ae68106d594961191fa229581ba680c7cec3391f099a14e3e8ddabee9117afdd444ade4fb
20352704f0fd60c0585abd2617d7feb6cb01862bb6757283bcec5e6dd892885637336dbcc66e
a015dfe5d0aab49a907fe11f3ae5c128eb1ca94d9ac1ef3078b24b34cd78fbd209af2257d2de
1ff3ce0ef003dcf10b20ad6c487b95a2a4fab346890d8ffb4fbf9ba901f4f8dea65beb2f9160
4fbea896c664e957a59a0c8c1b9b011eeff70eb0ec5b83bf38c27024c675a15e3c62fc43ced2
d225def93e98fe5eeece549d1140ec6e6bc662514ff9b33730050805bf2506ae9ac48944b498
ed18924576c87c5909d60208554e44ffb8d90c79cf332bd2826497a6665d79da88b6230235f7
0cda5412cfb49e69e5a8854f15f7228f64d46ff77ae1e8e92f9b7ead6811eb6748f274cd66d0
f586061c114e3887353dafa2c7e2a013a4cc6dd7b76b950d425bed20635882b2f658e5c89c4c
f422d68f8b8db2df36a35afe36cf86933db64c7a2c7826deedc9cba0251ec2507ad7
""".replace("\n", "")


def test_cusp_payload_of_every_type_is_pinned(capsys):
    types = [",".join(map(str, p.exponents)) for p in cusps.enumerate_cusp_types(30)]
    assert 4 * len(types) == len(CUSP_TYPE_DIGESTS) == 4 * 777
    whole, changed = hashlib.sha256(), []
    for i, text in enumerate(types):
        lines = "".join(
            run(["cusp", "--type", text, *extra, "--json"], capsys)[1]
            for extra in ([], ["--n", "3"])
        ).encode()
        whole.update(lines)
        if hashlib.sha256(lines).hexdigest()[:4] != CUSP_TYPE_DIGESTS[4 * i : 4 * i + 4]:
            changed.append(text)
    first = changed[0] if changed else "none by the 4-digit digests"
    assert whole.hexdigest() == CUSP_ALL_SHA256, f"first type whose line differs: {first}"


def test_branch_command_monomial(capsys):
    code, payload, _ = run_json(["branch", "--type", "2,3"], capsys)
    assert code == 0
    assert payload["multiplicity"] == 2
    assert payload["cusp_type"] == [2, 3]
    assert payload["jet"] == {"k": 1, "l": 0, "P1": [["1", "0"]], "P2": [["1", "0"]]}
    assert payload["ordinary_cusp"] is True
    assert payload["delta"] == 1
    assert payload["bennequin"] == 1


@pytest.mark.parametrize("cusp_type", ["2,5", "3,4"])
def test_branch_not_ordinary_cusp(cusp_type, capsys):
    # (k, l) = (1, 1) and (2, 0): an ordinary cusp needs both k = 1 and l = 0
    code, payload, _ = run_json(["branch", "--type", cusp_type], capsys)
    assert code == 0
    assert payload["ordinary_cusp"] is False


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


# b = (t^2, t^2 + t^3) is not prepared: prepare() shears it to (t^2, t^3)
# for its cusp type and jet, but its intersections are those of b itself.
_SHEARED = [{"exp": 2, "coeff": [["1", "1", "0", "1"], ["1", "1", "0", "1"]]},
            {"exp": 3, "coeff": [["0", "1", "0", "1"], ["1", "1", "0", "1"]]}]
_LINE = [{"exp": 1, "coeff": [["1", "1", "0", "1"], ["1", "1", "0", "1"]]}]


@pytest.mark.parametrize(
    "other,want",
    [
        (["--other-file", "@line"], 3),  # y - x = t^3 along b
        (["--other-type", "2,3"], 4),  # ((y - x)^2 - x^3)(s^2, s^3) = s^4 - 2 s^5
        (["--other-file", "@sheared"], None),  # the same germ
    ],
    ids=["line", "model", "itself"],
)
def test_branch_file_intersects_the_branch_as_loaded(other, want, tmp_path, capsys):
    files = {"@sheared": _SHEARED, "@line": _LINE}
    for name, terms in files.items():
        (tmp_path / name).write_text(
            json.dumps({"ambient_dim": 2, "truncation_order": 6, "terms": terms})
        )
    argv = ["branch", "--file", str(tmp_path / "@sheared")]
    argv += [str(tmp_path / arg) if arg in files else arg for arg in other]
    code, out, err = run(argv, capsys)
    if want is None:
        assert (code, out) == (1, "")
        assert json.loads(err) == {"error": "the two jets are identical"}
        return
    assert code == 0, err
    payload = json.loads(out)
    assert payload["prepared"] is False
    assert payload["prepared_branch"]["terms"][0]["coeff"][1] == ["0", "1", "0", "1"]
    assert payload["cusp_type"] == [2, 3]
    assert payload["intersection_multiplicity"] == want


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


def test_run_suite_refuses_an_unknown_name_with_a_value_error():
    from pseudocurve import verify

    with pytest.raises(ValueError) as exc:
        verify.run_suite("nope")
    assert str(exc.value) == f"unknown suite 'nope'; choose from {sorted(verify.SUITES)}"
    assert len(verify.SUITES) == 11
    assert all(repr(name) in str(exc.value) for name in verify.SUITES)


def test_a_suite_that_raises_is_a_failed_certificate(monkeypatch, capsys):
    from pseudocurve import cusps

    def broken(p):
        raise TypeError("broken oracle")

    monkeypatch.setattr(cusps, "nodal_number_oracle", broken)
    code, out, err = run(["verify", "--suite", "delta"], capsys)
    assert code == 2
    assert "Traceback" not in err
    payload = json.loads(out)
    assert payload["suite"] == "delta"
    assert payload["cases_run"] == payload["cases_failed"] == 1
    assert payload["failures"][0]["input"] == "suite raised"
    assert payload["failures"][0]["got"] == "TypeError('broken oracle')"
    code, out, err = run(["verify", "--suite", "all"], capsys)
    assert code == 2
    assert "Traceback" not in err
    certs = json.loads(out)
    assert len(certs) == 11
    assert [c["suite"] for c in certs if c["cases_failed"]] == ["delta"]


def test_verify_deterministic_output(capsys):
    _, first, _ = run(["verify", "--suite", "saddle", "--seed", "3"], capsys)
    _, second, _ = run(["verify", "--suite", "saddle", "--seed", "3"], capsys)
    assert first == second  # byte-identical
    _, third, _ = run(["verify", "--suite", "saddle", "--seed", "4"], capsys)
    assert json.loads(third)["cases_run"] == json.loads(first)["cases_run"]


def test_verify_takes_a_suite_and_a_seed_only(capsys):
    # suite sizes are module constants, so a certificate is fixed by what it
    # prints: its suite, its seed and the package version
    from pseudocurve import verify

    for name, fn in verify.SUITES.items():
        params = inspect.signature(fn).parameters.values()
        assert [(p.name, p.default) for p in params] == [("seed", 0)], name
    assert list(inspect.signature(verify.run_suite).parameters) == ["name", "seed"]
    assert list(inspect.signature(verify.run_all).parameters) == ["seed"]
    with pytest.raises(SystemExit) as exc:
        cli.main(["verify", "--help"])
    assert exc.value.code == 0
    assert "--cases" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ["node", "--lambda", "0.1", "--check", "radius", "--grid", "0"],
        ["node", "--lambda", "0.1", "--check", "metric", "--grid", "-3"],
        ["node", "--lambda", "0.1", "--check", "gluing", "--grid", "0"],
        ["node", "--lambda", "0.1", "--check", "volume", "--grid", "-1"],
    ],
)
def test_nonpositive_counts_exit_64(argv, capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 64
    assert "must be >= 1" in capsys.readouterr().err


def test_zero_case_certificate_fails(monkeypatch):
    from pseudocurve import verify

    monkeypatch.setattr(verify, "_SADDLE_CASES", 0)
    cert = verify.suite_saddle()
    assert cert.cases_run == 0
    assert not cert.passed
    assert verify.VerificationCertificate("empty", "no anchor").passed is False


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
# missing values.  Degrees and grids stay small; verify always names one
# suite (never "all") and a seed.
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
                 "--seed", draw(st.sampled_from(["1", "2", "0", "-1", "x"]))]
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


# One output path: a payload is one JSON line on stdout, a domain error one
# JSON object on stderr, a usage error argparse's text on stderr.  The exit 2
# rows patch their check to fail; the others run as given.
def _patch_to_fail(monkeypatch, command):
    from pseudocurve import cylinders, verify

    if command == "node":
        monkeypatch.setattr(cylinders, "volume_identity_residual", lambda lam, grid: 1.0)
    elif command == "decay":
        monkeypatch.setattr(
            cylinders, "decay_estimate_check",
            lambda u: cylinders.DecayReport((0.0,) * u.length, (("shape", math.inf),), False),
        )
    else:  # a certificate that ran no case does not pass
        monkeypatch.setitem(
            verify.SUITES, "cosh", lambda seed: verify.VerificationCertificate("cosh", "none")
        )


HUGE = "1" + "0" * 400  # an integer beyond the range of a double
OUTPUT_MATRIX = [
    (["cusp", "--type", "4,6,7"], 0),
    (["cusp", "--type", "2,4"], 1),
    (["cusp", "--type", "2,200003"], 1),
    (["cusp"], 64),
    (["index", "--mu", "18", "--genus", "10", "--marked", "17", "--complex"], 0),
    (["index", "--mu", "18", "--genus", "10", "--h1", "-1"], 1),
    (["index", "--genus", "10"], 64),
    (["saddle", "--k", "6", "--l", "1", "--poly=2,0,0,0,-1"], 0),
    (["saddle", "--k", "2", "--l", "1", "--poly=1/0"], 1),
    (["saddle", "--k", "201", "--l", "0", "--poly", "1"], 1),
    (["saddle", "--k", "3", "--l", "1", "--poly", "-1,2"], 64),
    (["node", "--lambda", "0.1", "--check", "gluing"], 0),
    (["node", "--lambda", "0.1", "--check", "volume"], 2),
    (["node", "--lambda", "1.5", "--check", "volume"], 1),
    (["node", "--lambda", "0.1", "--check", "volume", "--grid", HUGE], 1),
    (["node", "--lambda", "0.1", "--check", "gluing", "--grid", HUGE], 1),
    (["node", "--lambda", "0.1", "--check", "volume", "--grid", "100001"], 1),
    (["node", "--lambda", "0.1", "--check", "gluing", "--grid", "100001"], 1),
    (["node", "--lambda", "0.1", "--check", "gluing", "--grid", "0"], 64),
    (["decay", "--modes", "1:1,0,0;2:0,1,0"], 0),
    (["decay", "--modes", "1:1,0"], 2),
    (["decay", "--modes", "x"], 1),
    (["decay", "--modes", "1:1,0", "--length", "10", "--k", "10"], 1),
    (["decay", "--modes", "1:1,0", "--k", HUGE], 1),
    (["decay", "--modes", "1:1,0", "--length", HUGE], 1),
    (["decay", "--modes", "1:1,0", "--length", "10001"], 1),
    (["decay", "--modes", "1:1,0", "--length", "0"], 1),
    (["decay"], 64),
    (["branch", "--type", "2,3", "--other-type", "3,4"], 0),
    (["branch", "--type", "100004,100006,200007"], 1),
    (["branch", "--type", "503,504", "--other-type", "501,502"], 1),
    (["branch"], 1),
    (["branch", "--file", "no-such-branch.json"], 1),
    (["branch", "--type"], 64),
    (["feasibility", "--cp2-degree", "6", "--json"], 0),
    (["feasibility", "--cp2-degree", "0"], 1),
    (["feasibility", "--cp2-degree", "1001", "--all-splittings"], 1),
    (["feasibility"], 64),
    (["verify", "--suite", "cosh"], 0),
    (["verify", "--suite", "cosh"], 2),
    (["verify", "--suite", "nope"], 1),
    (["verify", "--suite", "saddle", "--cases", "-3"], 64),
]


@pytest.mark.parametrize(
    "argv,code",
    OUTPUT_MATRIX,
    ids=[f"{' '.join(a)}->{c}".replace(HUGE, "HUGE") for a, c in OUTPUT_MATRIX],
)
def test_one_output_path(argv, code, monkeypatch, tmp_path, capsys):
    monkeypatch.chdir(tmp_path)  # no-such-branch.json does not exist here
    if code == 2:
        _patch_to_fail(monkeypatch, argv[0])
    if code == 64:
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 64
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].startswith(f"pseudocurve {argv[0]}: error: ")
        return
    got, out, err = run(argv, capsys)
    assert got == code
    if code == 1:
        assert out == ""
        assert err.endswith("\n") and err.count("\n") == 1
        assert list(json.loads(err)) == ["error"]
    else:
        assert err == ""
        assert out.endswith("\n") and out.count("\n") == 1
        assert out == json.dumps(json.loads(out), sort_keys=True) + "\n"


# Bounded work: each int option of build_parser(), and the cusp and branch
# types, answers or refuses within seconds and 2 MB of output.  A row builds
# the argv for a size v.  At the row's ceiling v answers (exit 0); just above
# it, at 10^16 and at 401 digits it is refused (exit 1).  A row without a
# ceiling costs the same at every v and answers at both large sizes.
BOUNDED_WORK = [
    ("cusp", "--n", lambda v: ["cusp", "--type", "2,3", "--n", str(v)], None),
    # (2, 2v - 1) has v admissible exponents
    ("cusp", "--type", lambda v: ["cusp", "--type", f"2,{2 * v - 1}"], 10**5),
    ("index", "--mu", lambda v: ["index", "--mu", str(v), "--genus", "1"], None),
    ("index", "--n", lambda v: ["index", "--mu", "18", "--genus", "10", "--n", str(v)], None),
    ("index", "--genus", lambda v: ["index", "--mu", "18", "--genus", str(v)], None),
    ("index", "--marked",
     lambda v: ["index", "--mu", "18", "--genus", "10", "--marked", str(v)], None),
    ("index", "--k-total",
     lambda v: ["index", "--mu", "18", "--genus", "10", "--h1", "0", "--k-total", str(v)], None),
    ("index", "--h1", lambda v: ["index", "--mu", "18", "--genus", "10", "--h1", str(v)], None),
    ("saddle", "--k", lambda v: ["saddle", "--k", str(v), "--l", "0", "--poly", "1"], 200),
    ("saddle", "--l", lambda v: ["saddle", "--k", "200", "--l", str(v), "--poly", "1"], 199),
    ("saddle", "--nu",
     lambda v: ["saddle", "--k", "6", "--l", "1", "--poly=2,0,0,0,-1", "--nu", str(v)], None),
    ("node", "--grid",
     lambda v: ["node", "--lambda", "0.1", "--check", "gluing", "--grid", str(v)], 10**5),
    ("node", "--grid",
     lambda v: ["node", "--lambda", "0.1", "--check", "volume", "--grid", str(v)], 10**5),
    ("decay", "--length", lambda v: ["decay", "--modes", "1:1,0", "--length", str(v)], 10**4),
    ("decay", "--k",
     lambda v: ["decay", "--modes", "1:1,0", "--length", "10000", "--k", str(v)], 9999),
    # (2v, 2v + 2, 4v - 1): the jet's P2 has 2v - 2 coefficients
    ("branch", "--type", lambda v: ["branch", "--type", f"{2 * v},{2 * v + 2},{4 * v - 1}"],
     50001),
    # the norm's ring has multiplicity v
    ("branch", "--other-type",
     lambda v: ["branch", "--type", f"{v + 2},{v + 3}", "--other-type", f"{v},{v + 1}"], 500),
    ("feasibility", "--cp2-degree",
     lambda v: ["feasibility", "--cp2-degree", str(v), "--all-splittings"], 1000),
    ("feasibility", "--cp2-degree", lambda v: ["feasibility", "--cp2-degree", str(v)], None),
    ("verify", "--seed", lambda v: ["verify", "--suite", "intersection", "--seed", str(v)], None),
]


@pytest.mark.parametrize(
    "argv_of,ceiling", [row[2:] for row in BOUNDED_WORK],
    ids=[" ".join(row[2](row[3] or 7)) for row in BOUNDED_WORK],  # the call at the ceiling
)
def test_work_is_bounded_at_every_size(argv_of, ceiling, capsys):
    refused = 0 if ceiling is None else 1
    sizes = [(10**16, refused), (int(HUGE), refused)]
    if ceiling is not None:
        sizes = [(ceiling, 0), (ceiling + 1, 1)] + sizes
    for v, code in sizes:
        start = time.perf_counter()
        got, out, err = run(argv_of(v), capsys)
        assert time.perf_counter() - start < 5.0
        assert len(out) + len(err) <= 2 * 10**6
        assert got == code, (v, err)


def test_every_int_option_has_a_bounded_work_row():
    int_options = {
        (command, action.option_strings[0])
        for command, subparser in _subcommands().items()
        for action in subparser._actions
        if action.type in (int, cli._positive_int)
    }
    assert int_options <= {row[:2] for row in BOUNDED_WORK}
