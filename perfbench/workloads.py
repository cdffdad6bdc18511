"""Inputs, operations and correctness oracles of the three workloads.

A workload is built from a seed into *rounds*: fixed lists of operations
whose sizes do not depend on the seed; the seed draws the coefficients,
types and CLI arguments and one shuffled order, shared by all rounds, so
position j of every round holds the same kind of operation.  The measuring
loop runs whole rounds, so every run does the same mix of work.

Every operation checks its result against a closed form that does not use
the measured code path and returns an :class:`Outcome`:

* ``ok``     - the documented answer;
* ``defect`` - the recorded signature of a known defect (see ``DEFECTS``);
  it lowers ``ok_share`` and is listed in the report, and a later fix turns
  it into ``ok``;
* ``wrong``  - anything else; the run is then not correct.
"""

from __future__ import annotations

import json
import math
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from pathlib import Path
from typing import Callable

WORKLOADS = ("verify_all", "exact_scaling", "cli_mix")

# Known defects, kept in the mix on purpose (ROADMAP items 3 and 5).
DEFECTS = {
    "trust_rule": "nu > min(T1, T2) refuses an intersection the exact jets determine",
    "asymmetry": "resultant path counts a non-local zero: I(y, b) != I(b, y)",
    "traceback": "malformed input gives a Python traceback, not a JSON error",
    "zero_cases": "verify --cases -3 runs 0 cases and exits 0",
}

TRACEBACK = "Traceback (most recent call last)"


@dataclass
class Outcome:
    status: str  # "ok", "defect" or "wrong"
    note: str = ""
    output: str = ""  # canonical output, compared between traced and untraced runs


def expect(condition: bool, note: str) -> Outcome:
    return Outcome("ok") if condition else Outcome("wrong", note)


@dataclass
class Op:
    label: str  # the input, as listed in the report
    run: Callable[[], Outcome]


def _same_order(rng: random.Random, rounds: list[list[Op]]) -> list[list[Op]]:
    order = list(range(len(rounds[0])))
    rng.shuffle(order)
    return [[ops[i] for i in order] for ops in rounds]


def _rational(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-9, 9), rng.randint(1, 9))


# ---------------------------------------------------------------------------
# verify_all: one verify.run_all(seed=s) per operation
# ---------------------------------------------------------------------------

def build_verify_all(rng: random.Random, _workdir: Path, rounds: int = 64) -> list[list[Op]]:
    from pseudocurve import verify

    def op(seed: int) -> Op:
        def run() -> Outcome:
            certs = verify.run_all(seed=seed)
            text = json.dumps([c.to_json() for c in certs], sort_keys=True)
            bad = [c.suite for c in certs if not c.passed or c.cases_run == 0]
            if bad:
                return Outcome("wrong", f"suites failed or ran 0 cases: {bad}", text)
            return Outcome("ok", output=text)

        return Op(f"verify.run_all(seed={seed})", run)

    return [[op(rng.randrange(2**31))] for _ in range(rounds)]


# ---------------------------------------------------------------------------
# exact_scaling: four exact kernels beyond the verify sizes
# ---------------------------------------------------------------------------

INERTIA_K = range(8, 21, 3)  # matrix size 2(k+1) = 18 .. 42
INERTIA_L = (0, 1, 2)
GRAPH_T = (5, 8)
CP2_DEGREES = (18, 22, 26)
NODAL_BATCHES = 5
NODAL_BATCH_SIZE = 400
# Quasi-homogeneous pairs ((a, b), (c, d), T): I = min(a*d, b*c).  The last
# three are refused by the trust rule although the exact jets determine I.
MONOMIAL_PAIRS = (
    ((2, 3), (3, 4), 9),
    ((2, 3), (2, 5), 6),
    ((2, 5), (3, 4), 9),
    ((2, 3), (3, 4), 5),
    ((3, 5), (4, 7), 9),
    ((2, 7), (3, 5), 9),
)


def _random_cusp_type(rng: random.Random, lo: int, hi: int) -> tuple[int, ...]:
    """Random cusp type with lo <= p_last <= hi, by rejection."""
    while True:
        p0 = rng.randint(2, hi - 1)
        exps, d = [p0], p0
        while d > 1 and exps[-1] < hi:
            drops = [q for q in range(exps[-1] + 1, hi + 1) if gcd(d, q) < d]
            if not drops:
                break
            q = rng.choice(drops)
            exps.append(q)
            d = gcd(d, q)
        if d == 1 and lo <= exps[-1] <= hi:
            return tuple(exps)


def build_exact_scaling(rng: random.Random, _workdir: Path, rounds: int = 6) -> list[list[Op]]:
    from pseudocurve import branches, cusps, indices, residues
    from pseudocurve.errors import IndeterminateWithinTruncation
    from pseudocurve.gaussian import GaussianRational as GR

    def gaussian(nonzero: bool = False) -> GR:
        while True:
            value = GR(_rational(rng), _rational(rng))
            if value or not nonzero:
                return value

    def inertia_op(k: int, l: int) -> Op:
        coeffs = (gaussian(True),) + tuple(gaussian() for _ in range(k - l - 1))
        form = residues.ResidueForm(k, l, coeffs)

        def run() -> Outcome:
            r = residues.inertia(form)
            got = (r.ind_plus, r.ind_minus, r.nullity)
            return expect(got == (k - l, k - l, 2 * l + 2), f"inertia {got}")

        return Op(f"inertia k={k} l={l} P={[str(c) for c in coeffs]}", run)

    def graph_op(t: int) -> Op:
        # Graphs (x, y1(x)) and (x, y2(x)) agreeing below order m: I = m.
        m = rng.randint(2, t)
        y1 = {e: gaussian() for e in range(1, t + 1)}
        y2 = dict(y1)
        for e in range(m, t + 1):
            y2[e] = gaussian()
        while y2[m] == y1[m]:
            y2[m] = gaussian()
        b1 = branches.Branch.from_coordinates([{1: 1}, y1], t)
        b2 = branches.Branch.from_coordinates([{1: 1}, y2], t)

        def run() -> Outcome:
            forward = branches.intersection_multiplicity(b1, b2)
            backward = branches.intersection_multiplicity(b2, b1)
            sub = branches.intersection_multiplicity_substitution(b1, b2)
            got = (forward, backward, sub)
            return expect(got == (m, m, m), f"(I12, I21, subst) = {got}, want {m}")

        label = f"graph pair T={t} m={m} y1={[str(y1[e]) for e in sorted(y1)]}"
        return Op(label, run)

    def monomial_op(ab, cd, t: int) -> Op:
        (a, b), (c, d) = ab, cd
        b1 = branches.Branch.from_coordinates([{a: 1}, {b: 1}], t)
        b2 = branches.Branch.from_coordinates([{c: 1}, {d: 1}], t)
        want = min(a * d, b * c)

        def run() -> Outcome:
            try:
                got = branches.intersection_multiplicity(b1, b2)
            except IndeterminateWithinTruncation:
                return Outcome("defect", "trust_rule")
            return expect(got == want, f"I = {got}, want {want}")

        return Op(f"monomial pair {ab} {cd} T={t}", run)

    def asymmetric_op() -> Op:
        # b = (s + s^2, s^2 + s^3) meets the y-axis once at the origin; its
        # polynomial jet passes through 0 again at s = -1 (ROADMAP item 3).
        b = branches.Branch.from_coordinates([{1: 1, 2: 1}, {2: 1, 3: 1}])
        y_axis = branches.Branch.from_coordinates([{}, {1: 1}], 3)

        def run() -> Outcome:
            sub = branches.intersection_multiplicity_substitution(b, y_axis)
            forward = branches.intersection_multiplicity(b, y_axis)
            backward = branches.intersection_multiplicity(y_axis, b)
            if (sub, forward) != (1, 1):
                return Outcome("wrong", f"(subst, I(b, y)) = {(sub, forward)}")
            if backward == 2:
                return Outcome("defect", "asymmetry")
            return expect(backward == 1, f"I(y, b) = {backward}")

        return Op("asymmetric pair b=(s+s^2, s^2+s^3), y-axis T=3", run)

    def cp2_op(d: int) -> Op:
        def run() -> Outcome:
            r = indices.cp2_multiple_component_obstruction(d, all_splittings=True)
            worst = (d - 2) * (d + 1) // 2 + 2
            got = (r.worst_count, r.required, r.obstructed)
            return expect(got == (worst, 3 * d - 1, worst < 3 * d - 1), f"report {got}")

        return Op(f"cp2 all_splittings d={d}", run)

    def nodal_op(types: list) -> Op:
        def run() -> Outcome:
            for p in types:
                formula = cusps.nodal_number_formula(p)
                oracle = cusps.nodal_number_oracle(p)
                if formula != 2 * oracle:
                    return Outcome("wrong", f"{list(p)}: formula {formula}, oracle {oracle}")
            return Outcome("ok")

        first = list(types[0].exponents)
        return Op(f"nodal batch of {len(types)} from {first}", run)

    def one_round() -> list[Op]:
        ops = [inertia_op(k, l) for k in INERTIA_K for l in INERTIA_L]
        ops += [graph_op(t) for t in GRAPH_T]
        ops += [monomial_op(ab, cd, t) for ab, cd, t in MONOMIAL_PAIRS]
        ops.append(asymmetric_op())
        ops += [cp2_op(d) for d in CP2_DEGREES]
        for _ in range(NODAL_BATCHES):
            batch = [
                cusps.CuspType(_random_cusp_type(rng, 31, 50))
                for _ in range(NODAL_BATCH_SIZE)
            ]
            ops.append(nodal_op(batch))
        return ops

    # Distinct rounds, so that a cache keyed on inputs cannot serve a repeat.
    return _same_order(rng, [one_round() for _ in range(rounds)])


# ---------------------------------------------------------------------------
# cli_mix: one `python -m pseudocurve.cli <argv>` subprocess per operation
# ---------------------------------------------------------------------------

CLI_SUBCOMMANDS = (
    "cusp", "index", "saddle", "node", "decay", "branch", "feasibility", "verify",
)
CHEAP_SUITES = (
    "delta", "feasibility", "genus", "index", "cosh", "volume", "gluing", "decay",
    "roundtrip",
)
CLI_PER_SUBCOMMAND = 2
CLI_ERRORS_PER_ROUND = 2  # with 5 known defects: about one call in ten


@dataclass
class CliCall:
    argv: list[str]
    check: Callable[[int, str, str], Outcome]


def _payload(out: str):
    return json.loads(out.strip().splitlines()[-1])


def _ok_json(rc: int, out: str, err: str, want: Callable[[dict], Outcome]) -> Outcome:
    if TRACEBACK in err:
        return Outcome("wrong", "traceback")
    if rc != 0:
        return Outcome("wrong", f"exit {rc}: {err.strip()[-200:]}")
    try:
        payload = _payload(out)
    except (ValueError, IndexError):
        return Outcome("wrong", f"stdout is not JSON: {out[-200:]!r}")
    return want(payload)


def _documented_error(codes: tuple[int, ...]) -> Callable[[int, str, str], Outcome]:
    def check(rc: int, out: str, err: str) -> Outcome:
        if TRACEBACK in err or rc not in codes:
            return Outcome("wrong", f"exit {rc}, want one of {codes}")
        if rc == 1:
            try:
                return expect("error" in json.loads(err.strip().splitlines()[-1]), "no error key")
            except (ValueError, IndexError):
                return Outcome("wrong", "stderr is not a JSON error")
        return Outcome("ok")

    return check


def _traceback_defect(rc: int, out: str, err: str) -> Outcome:
    if TRACEBACK in err:
        return Outcome("defect", "traceback")
    return _documented_error((1, 64))(rc, out, err)


def _cli_calls(rng: random.Random, workdir: Path) -> dict[str, list[CliCall]]:
    """Seeded argument lists, CLI_PER_SUBCOMMAND per subcommand."""

    def cusp() -> CliCall:
        a = rng.randint(2, 9)
        b = rng.choice([q for q in range(a + 1, 3 * a + 2) if gcd(a, q) == 1])
        delta = (a - 1) * (b - 1) // 2
        argv = ["cusp", "--type", f"{a},{b}"] + (["--json"] if rng.random() < 0.5 else [])

        def want(p: dict) -> Outcome:
            got = (p["type"], p["delta"], p["delta_formula_verbatim"], p["bennequin"])
            return expect(got == ([a, b], delta, 2 * delta, 2 * delta - 1), f"fields {got}")

        return CliCall(argv, lambda rc, o, e: _ok_json(rc, o, e, want))

    def index() -> CliCall:
        mu, n, g, m = rng.randint(-20, 40), rng.randint(2, 5), rng.randint(0, 12), rng.randint(0, 10)
        h1, kt = rng.randint(0, 6), rng.randint(0, 20)
        cx = rng.random() < 0.5
        argv = ["index", "--mu", str(mu), "--n", str(n), "--genus", str(g),
                "--marked", str(m), "--h1", str(h1), "--k-total", str(kt)]
        argv += ["--complex"] if cx else []
        scale = 2 if cx else 1
        h0 = h1 + 2 * (mu + (g - 1) * (3 - n) - kt)
        expected = {
            "gromov_operator_index": 2 * (mu + n * (1 - g)) // scale,
            "moduli_projection_index": 2 * (mu + (n - 3) * (1 - g)) // scale,
            "marked_moduli_index": 2 * (mu + (n - 3) * (1 - g) - m) // scale,
            "teichmueller_dim_complex": 0 if g == 0 else 1 if g == 1 else 3 * g - 3,
            "h0_from_h1": h0,
            "stratum_empty": h0 < 0,
            "cusp_count_bounds": {
                "lower": mu - m,
                "upper": mu - m + g - 1,
                "contradictory": mu - m > mu - m + g - 1,
            },
        }
        if h0 >= 0:
            expected["h1_stratum_codim"] = h0 * h1

        def want(p: dict) -> Outcome:
            got = {key: p.get(key) for key in expected}
            return expect(got == expected, f"fields {got}")

        return CliCall(argv, lambda rc, o, e: _ok_json(rc, o, e, want))

    def saddle() -> CliCall:
        k = rng.randint(1, 4)
        l = rng.randint(0, k - 1)
        nu = rng.randint(0, 4)
        poly = [_rational(rng) for _ in range(k - l)]
        while poly[0] == 0:
            poly[0] = _rational(rng)
        argv = ["saddle", "--k", str(k), "--l", str(l), "--nu", str(nu),
                "--poly=" + ",".join(str(c) for c in poly)]

        def want(p: dict) -> Outcome:
            i = p["inertia"]
            got = (i["ind_plus"], i["ind_minus"], i["nullity"], p["matches"],
                   p["a0_equivalent"], p["saddle_contribution_nu"]["value"])
            return expect(
                got == (k - l, k - l, 2 * l + 2, True, True, max(0, k - l - nu)),
                f"fields {got}",
            )

        return CliCall(argv, lambda rc, o, e: _ok_json(rc, o, e, want))

    def node() -> CliCall:
        lam = complex(rng.uniform(0.01, 0.5), rng.uniform(-0.2, 0.2))
        text = f"{lam.real:.4f}{lam.imag:+.4f}i"
        check = rng.choice(("volume", "gluing", "radius", "metric"))
        argv = ["node", "--lambda", text, "--check", check]
        if check == "gluing":
            argv += ["--grid", "1000"]
        if check == "metric":
            argv += ["--z", f"{rng.uniform(0.2, 0.9):.3f}{rng.uniform(-0.3, 0.3):+.3f}i"]
        modulus = abs(complex(text.replace("i", "j")))

        def want(p: dict) -> Outcome:
            if check in ("volume", "gluing"):
                return expect(p["passed"] is True, f"passed = {p['passed']}")
            if check == "radius":
                got = p["radius_log"]
                return expect(abs(got - math.log(1 / modulus)) < 1e-12, f"radius_log {got}")
            return expect(math.isfinite(p["density"]) and p["density"] > 0, "density")

        return CliCall(argv, lambda rc, o, e: _ok_json(rc, o, e, want))

    def decay() -> CliCall:
        modes = rng.sample([m for m in range(-5, 6)], rng.randint(1, 3))
        chunks = [
            f"{m}:" + ",".join(f"{rng.uniform(-1, 1):.3f}" for _ in range(4)) for m in modes
        ]
        band = rng.randint(1, 8)
        argv = ["decay", "--modes=" + ";".join(chunks), "--length", "10", "--k", str(band)]

        def want(p: dict) -> Outcome:
            got = (p["passed"], len(p["band_energies"]), p["three_term"]["band"])
            return expect(got == (True, 10, band), f"fields {got}")

        return CliCall(argv, lambda rc, o, e: _ok_json(rc, o, e, want))

    def branch() -> CliCall:
        a = rng.randint(2, 6)
        b = rng.choice([q for q in range(a + 1, 2 * a + 4) if gcd(a, q) == 1])
        delta = (a - 1) * (b - 1) // 2
        if rng.random() < 0.5:
            argv = ["branch", "--type", f"{a},{b}"]
        else:
            # (t^a, t^b + c t^(b+1)) written as branch JSON, already prepared
            c = _rational(rng) or Fraction(1)
            path = workdir / f"branch_{a}_{b}_{rng.randrange(10**6)}.json"
            one, zero = ["1", "1", "0", "1"], ["0", "1", "0", "1"]
            cq = [str(c.numerator), str(c.denominator), "0", "1"]
            terms = [
                {"exp": a, "coeff": [one, zero]},
                {"exp": b, "coeff": [zero, one]},
                {"exp": b + 1, "coeff": [zero, cq]},
            ]
            path.write_text(json.dumps(
                {"ambient_dim": 2, "truncation_order": max(b + 1, 2 * a - 1), "terms": terms}
            ))
            argv = ["branch", "--file", str(path)]

        def want(p: dict) -> Outcome:
            got = (p["cusp_type"], p["delta"], p["multiplicity"], p["bennequin"])
            return expect(got == ([a, b], delta, a, 2 * delta - 1), f"fields {got}")

        return CliCall(argv, lambda rc, o, e: _ok_json(rc, o, e, want))

    def feasibility() -> CliCall:
        d = rng.randint(3, 14)
        argv = ["feasibility", "--cp2-degree", str(d)]
        argv += ["--all-splittings"] if d <= 12 and rng.random() < 0.5 else []
        argv += ["--json"] if rng.random() < 0.5 else []
        worst = (d - 2) * (d + 1) // 2 + 2

        def want(p: dict) -> Outcome:
            got = (p["worst_count"], p["required"], p["obstructed"])
            return expect(got == (worst, 3 * d - 1, worst < 3 * d - 1), f"fields {got}")

        return CliCall(argv, lambda rc, o, e: _ok_json(rc, o, e, want))

    def verify_() -> CliCall:
        suite = rng.choice(CHEAP_SUITES)
        argv = ["verify", "--suite", suite, "--seed", str(rng.randrange(1000))]

        def want(p: dict) -> Outcome:
            got = (p["suite"], p["cases_run"] > 0, p["cases_failed"])
            return expect(got == (suite, True, 0), f"fields {got}")

        return CliCall(argv, lambda rc, o, e: _ok_json(rc, o, e, want))

    makers = {
        "cusp": cusp, "index": index, "saddle": saddle, "node": node, "decay": decay,
        "branch": branch, "feasibility": feasibility, "verify": verify_,
    }
    return {sub: [makers[sub]() for _ in range(CLI_PER_SUBCOMMAND)] for sub in CLI_SUBCOMMANDS}


def _cli_error_and_defect_calls(rng: random.Random, workdir: Path) -> list[CliCall]:
    """Documented error paths (about one call in ten) and the known defects."""
    one, zero = ["1", "1", "0", "1"], ["0", "1", "0", "1"]
    zero_den = workdir / "branch_zero_denominator.json"
    zero_den.write_text(json.dumps({
        "ambient_dim": 2, "truncation_order": 3,
        "terms": [{"exp": 2, "coeff": [["1", "0", "0", "1"], zero]},
                  {"exp": 3, "coeff": [zero, one]}],
    }))
    bad_shape = workdir / "branch_bad_shape.json"
    bad_shape.write_text(json.dumps({"ambient_dim": 2, "truncation_order": 3,
                                     "terms": [{"exp": 2}]}))

    def zero_cases(rc: int, out: str, err: str) -> Outcome:
        if TRACEBACK in err:
            return Outcome("wrong", "traceback")
        if rc == 0:
            try:
                ran = _payload(out)["cases_run"]
            except (ValueError, IndexError, KeyError):
                return Outcome("wrong", "stdout is not a certificate")
            return Outcome("defect", "zero_cases") if ran == 0 else Outcome("wrong", f"ran {ran}")
        return expect(rc in (1, 2, 64), f"exit {rc}")

    def trust_rule(rc: int, out: str, err: str) -> Outcome:
        if rc == 1 and TRACEBACK not in err and "truncation" in err:
            return Outcome("defect", "trust_rule")

        def want(p: dict) -> Outcome:
            got = p.get("intersection_multiplicity")
            return expect(got == 8, f"I = {got}, want min(2*4, 3*3) = 8")

        return _ok_json(rc, out, err, want)

    bad_type = rng.choice(("4,6,8", "6,4,5", "2,4", "0,1"))
    errors = [
        CliCall(["cusp", "--type", bad_type], _documented_error((1,))),
        CliCall(["saddle", "--k", "1", "--l", str(rng.randint(1, 5)), "--poly", "1"],
                _documented_error((1,))),
        CliCall(["node", "--lambda", f"{rng.uniform(1.0, 3.0):.3f}"], _documented_error((1,))),
        CliCall(["index", "--mu", str(rng.randint(0, 9))], _documented_error((64,))),
    ]
    return rng.sample(errors, CLI_ERRORS_PER_ROUND) + [
        CliCall(["branch", "--file", str(zero_den)], _traceback_defect),
        CliCall(["branch", "--file", str(bad_shape)], _traceback_defect),
        CliCall(["node", "--lambda", "0.1", "--check", "gluing", "--grid", "0"],
                _traceback_defect),
        CliCall(["verify", "--suite", "saddle", "--cases", "-3"], zero_cases),
        CliCall(["branch", "--type", "2,3", "--other-type", "3,4"], trust_rule),
    ]


class CliRunner:
    """Runs one CLI call as a child process; at most one child is alive."""

    def __init__(self, root: Path, env: dict, traced: bool = False) -> None:
        self.root = root
        self.env = env
        self.traced = traced
        self.child_traces: list[dict] = []

    def command(self, argv: list[str]) -> list[str]:
        if self.traced:
            return [sys.executable, str(self.root / "perfbench" / "clichild.py"), *argv]
        return [sys.executable, "-m", "pseudocurve.cli", *argv]

    def __call__(self, call: CliCall) -> Outcome:
        proc = subprocess.run(
            self.command(call.argv), cwd=self.root, env=self.env,
            capture_output=True, text=True, timeout=60,
        )
        err = proc.stderr
        if self.traced:
            from clichild import MARKER

            kept = []
            for line in err.splitlines(keepends=True):
                if line.startswith(MARKER):
                    self.child_traces.append(json.loads(line[len(MARKER):]))
                else:
                    kept.append(line)
            err = "".join(kept)
        outcome = call.check(proc.returncode, proc.stdout, err)
        outcome.output = proc.stdout
        return outcome


def build_cli_mix(
    rng: random.Random, workdir: Path, runner: CliRunner, rounds: int = 8
) -> list[list[Op]]:
    out = []
    for _ in range(rounds):
        calls = [c for cs in _cli_calls(rng, workdir).values() for c in cs]
        calls += _cli_error_and_defect_calls(rng, workdir)
        out.append([Op(" ".join(c.argv), (lambda c=c: runner(c))) for c in calls])
    return _same_order(rng, out)
