"""Command-line front end.

Subcommands: cusp, index, saddle, node, decay, branch, feasibility, verify.
Every subcommand accepts ``--json``; only feasibility reads it, to add
worst_splitting and anchors.  Each handler returns ``(payload, ok)``, and
``main`` alone writes output: the payload as one JSON line on stdout, exit 0
when ok and 2 (verification failure) when not; a domain error as a JSON
``error`` object on stderr, exit 1.  Usage errors exit 64.

Rationals are printed as decimal strings ("p/q"), complex values as
[re, im] pairs of such strings.
"""

from __future__ import annotations

import argparse
import cmath
import json
import sys
from typing import TYPE_CHECKING

from pseudocurve import __version__
from pseudocurve.errors import PseudocurveError

if TYPE_CHECKING:
    from fractions import Fraction

    from pseudocurve.branches import Branch
    from pseudocurve.gaussian import GaussianRational

# Each subcommand imports the modules it runs when it runs, so that a call
# loads nothing it does not use.  Calls go through module attributes
# (``cusps.nodal_number(p)``), where a patched or traced function is seen.

USAGE_EXIT = 64
DOMAIN_EXIT = 1
VERIFY_EXIT = 2


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # argparse default exits 2
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(USAGE_EXIT)

    def parse_known_args(self, args=None, namespace=None):
        # a subcommand refuses an argument it does not know with its own usage
        namespace, extras = super().parse_known_args(args, namespace)
        if extras:
            self.error(f"unrecognized arguments: {' '.join(extras)}")
        return namespace, extras


def _positive_int(text: str) -> int:
    """argparse type for counts that must be at least 1 (exit 64 otherwise)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _gr_json(value: GaussianRational) -> list[str]:
    return [str(value.re), str(value.im)]


def _parse_int_list(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip() != "")
    except ValueError as exc:
        raise PseudocurveError(f"cannot parse integer list {text!r}") from exc


def _parse_complex(text: str) -> complex:
    cleaned = text.strip().replace("i", "j").replace(" ", "")
    try:
        value = complex(cleaned)
    except ValueError as exc:
        raise PseudocurveError(f"cannot parse complex number {text!r}") from exc
    if not cmath.isfinite(value):
        raise PseudocurveError(f"complex number {text!r} is not finite")
    return value


def _parse_rational(text: str) -> Fraction:
    from fractions import Fraction

    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise PseudocurveError(f"cannot parse rational {text!r}") from exc


def _parse_modes(text: str) -> tuple[tuple[int, tuple[complex, ...]], ...]:
    """``m:re,im,re,im;m2:...`` - pairs per coordinate, trailing zero padded."""
    modes = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        head, _, rest = chunk.partition(":")
        try:
            m = int(head)
            values = [float(v) for v in rest.split(",") if v.strip() != ""]
        except ValueError as exc:
            raise PseudocurveError(f"cannot parse --modes chunk {chunk!r}") from exc
        if len(values) % 2:
            values.append(0.0)
        vec = tuple(
            complex(values[i], values[i + 1]) for i in range(0, len(values), 2)
        )
        if not all(map(cmath.isfinite, vec)):
            raise PseudocurveError(f"--modes chunk {chunk!r} is not finite")
        modes.append((m, vec))
    if not modes:
        raise PseudocurveError(f"no modes in {text!r}")
    return tuple(modes)


def _maybe_complex_dim(value: int, use_complex: bool) -> int:
    return value // 2 if use_complex else value


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def _cmd_cusp(args) -> tuple[object, bool]:
    from pseudocurve import cusps

    exponents = _parse_int_list(args.type)
    p = cusps.CuspType(exponents)  # raises InvalidCuspType -> exit 1
    adm = cusps.admissible_exponents(p)
    adm_divisors = cusps.divisor_sequence(adm)
    delta = cusps.nodal_number(p)
    n = args.n
    payload = {
        "type": list(p.exponents),
        "divisors": list(cusps.divisor_sequence(p)),
        "admissible": {
            "exponents": list(adm),
            "divisors": list(adm_divisors),
            "critical": list(cusps.critical_mask(adm_divisors)),
            "l_prime": len(adm) - 1,
        },
        "delta": delta,
        "delta_formula_verbatim": cusps.nodal_number_formula(p),
        "bennequin": cusps.bennequin_index(delta),
        "codim": {
            "cusp_stratum": cusps.cusp_stratum_codim(n, (p.p0 - 1,))
            if p.p0 >= 2
            else 0,
            "cusp_type_stratum": cusps.cusp_type_stratum_codim(n, (p,)),
        },
        "anchors": {
            "delta": cusps.ANCHOR_DELTA,
            "bennequin": "beta = 2*delta - 1",
        },
    }
    return payload, True


def _cmd_index(args) -> tuple[object, bool]:
    from pseudocurve import indices

    mu, n, g, m = args.mu, args.n, args.genus, args.marked
    cx = args.use_complex
    bounds = indices.cusp_count_bounds(mu, g, m)
    payload = {
        "gromov_operator_index": _maybe_complex_dim(
            indices.gromov_operator_index(mu, n, g), cx
        ),
        "moduli_projection_index": _maybe_complex_dim(
            indices.moduli_projection_index(mu, n, g), cx
        ),
        "marked_moduli_index": _maybe_complex_dim(
            indices.marked_moduli_index(mu, n, g, m), cx
        ),
        "teichmueller_dim_complex": indices.teichmueller_dim(g),
        "cusp_count_bounds": {
            "lower": bounds.lower,
            "upper": bounds.upper,
            "contradictory": bounds.contradictory,
        },
        "anchors": {"index": indices.ANCHOR_INDEX},
    }
    if args.h1 is not None:
        h0 = indices.h0_from_h1(mu, n, g, args.k_total, args.h1)
        payload["h0_from_h1"] = h0
        payload["stratum_empty"] = h0 < 0
        if h0 >= 0:
            payload["h1_stratum_codim"] = indices.h1_stratum_codim(h0, args.h1)
    return payload, True


def _cmd_saddle(args) -> tuple[object, bool]:
    from pseudocurve import residues

    coeffs = [_parse_rational(part) for part in args.poly.split(",") if part.strip()]
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    form = residues.ResidueForm(args.k, args.l, tuple(coeffs))
    matrix = residues.residue_form_matrix(form)
    result = residues.inertia(form)
    expected = args.k - args.l
    matches = result.ind_plus == expected and result.ind_minus == expected
    payload = {
        "k": args.k,
        "l": args.l,
        "poly": [_gr_json(c) for c in form.coefficients],
        "matrix": [[str(x) for x in row] for row in matrix],
        "inertia": {
            "ind_plus": result.ind_plus,
            "ind_minus": result.ind_minus,
            "nullity": result.nullity,
            "s_ind": result.s_ind,
        },
        "expected": expected,
        "matches": matches,
        "a0_equivalent": residues.a0_equivalence_check(form, result),
        "saddle_contribution_nu": {
            "nu": args.nu,
            "value": residues.saddle_index_at_cusp(args.k, args.l, args.nu),
        },
        "anchors": {"inertia": residues.ANCHOR_SADDLE},
    }
    return payload, matches


def _cmd_node(args) -> tuple[object, bool]:
    from pseudocurve import cylinders

    lam = _parse_complex(args.lam)
    check = args.check
    payload: dict = {"lambda": [repr(lam.real), repr(lam.imag)], "check": check}
    passed = True
    if check == "volume":
        residual = cylinders.volume_identity_residual(lam, grid=args.grid)
        passed = residual <= cylinders.VOLUME_TOLERANCE
        payload.update(
            grid=args.grid, max_residual=residual, tolerance=cylinders.VOLUME_TOLERANCE,
            passed=passed, anchors={"volume": cylinders.ANCHOR_VOLUME},
        )
    elif check == "gluing":
        worst = cylinders.gluing_inverse_residual(lam, args.grid)
        endpoints = {f"R({x:g})": cylinders.r_of_rho(x, lam) for x in (-1.0, 0.0, 1.0)}
        passed = worst <= cylinders.gluing_tolerance(lam)
        payload.update(
            grid=args.grid, inverse_pair_residual=worst, endpoints=endpoints,
            passed=passed, anchors={"gluing": cylinders.ANCHOR_GLUING},
        )
    elif check == "radius":
        payload.update(
            radius_log=cylinders.node_conformal_radius(lam),
            convention="radius_log = log(1/|lambda|)",
        )
    else:  # metric density at a sample point
        z = _parse_complex(args.z)
        payload.update(
            z_plus=[repr(z.real), repr(z.imag)],
            density=cylinders.hyperbola_metric_density(z, lam),
        )
    return payload, passed


def _cmd_decay(args) -> tuple[object, bool]:
    from pseudocurve import cylinders

    modes = _parse_modes(args.modes)
    u = cylinders.CylinderMap(modes, cylinders.Cylinder(0.0, float(args.length)))
    report = cylinders.decay_estimate_check(u, args.length)
    low, remainder = cylinders.three_term_truncation(u, float(args.k))
    payload = {
        "length": args.length,
        "modes": [[m, [[c.real, c.imag] for c in vec]] for m, vec in u.modes],
        "band_energies": list(report.band_energies),
        "gamma_star": cylinders.GAMMA_STAR,
        "gamma_2": cylinders.GAMMA_2,
        "constants": report.constants,
        "passed": report.passed,
        "three_term": {
            "band": args.k,
            "kept_modes": low.mode_numbers(),
            "remainder_l12_norm": remainder,
        },
        "anchors": {"decay": cylinders.ANCHOR_DECAY},
    }
    return payload, report.passed


def _load_branch(type_text: str | None, path: str | None) -> Branch | None:
    """The monomial model of a cusp type, else a branch JSON file, else None."""
    from pseudocurve import branches, cusps

    if type_text:
        exponents = _parse_int_list(type_text)
        return branches.branch_from_cusp_type(cusps.CuspType(exponents))
    if path:
        with open(path, "r", encoding="utf-8") as handle:
            return branches.Branch.from_json(json.load(handle))
    return None


def _cmd_branch(args) -> tuple[object, bool]:
    from pseudocurve import branches, cusps

    b = _load_branch(args.type, args.file)
    if b is None:
        raise PseudocurveError("provide --type or --file")
    payload: dict = {
        "branch": b.to_json(),
        "multiplicity": branches.multiplicity(b),
        "cusp_order": branches.cusp_order(b),
    }
    prepared = branches.is_prepared(b)
    payload["prepared"] = prepared
    # The shear of prepare() moves b alone, so only the local invariants
    # read the prepared copy; the intersection below takes b as loaded.
    local = b if prepared else branches.prepare(b)
    if not prepared:
        payload["prepared_branch"] = local.to_json()
    p = branches.cusp_type_of_branch(local)
    delta = cusps.nodal_number(p)
    payload["cusp_type"] = list(p.exponents)
    payload["delta"] = delta
    payload["bennequin"] = cusps.bennequin_index(delta)
    if b.ambient_dim == 2 and b.truncation_order >= 2 * branches.cusp_order(b) + 1:
        jet = branches.jet_normal_form(local)
        payload["jet"] = {
            "k": jet.k,
            "l": jet.l,
            "P1": [_gr_json(c) for c in jet.p1],
            "P2": [_gr_json(c) for c in jet.p2],
        }
        payload["ordinary_cusp"] = jet.k == 1 and jet.l == 0
    other = _load_branch(args.other_type, args.other_file)
    if other is not None:
        payload["intersection_multiplicity"] = branches.intersection_multiplicity(
            b, other
        )
    return payload, True


def _cmd_feasibility(args) -> tuple[object, bool]:
    from pseudocurve import indices

    report = indices.cp2_multiple_component_obstruction(
        args.cp2_degree, all_splittings=args.all_splittings
    )
    payload = {
        "obstructed": report.obstructed,
        "worst_count": report.worst_count,
        "required": report.required,
    }
    if args.json:
        payload["worst_splitting"] = [list(part) for part in report.worst_splitting]
        payload["anchors"] = {"feasibility": indices.ANCHOR_FEASIBILITY}
    return payload, True


def _cmd_verify(args) -> tuple[object, bool]:
    from pseudocurve import verify

    if args.suite == "all":
        certs = verify.run_all(seed=args.seed)
    else:
        certs = [verify.run_suite(args.suite, seed=args.seed)]
    payload = [cert.to_json() for cert in certs]
    return payload if len(payload) > 1 else payload[0], all(cert.passed for cert in certs)


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="pseudocurve", description=__doc__)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cusp = sub.add_parser("cusp", help="cusp type combinatorics")
    p_cusp.add_argument("--type", required=True, help="comma list, e.g. 4,6,7")
    p_cusp.add_argument("--n", type=int, default=2, help="ambient complex dimension")
    p_cusp.set_defaults(func=_cmd_cusp)

    p_index = sub.add_parser("index", help="moduli index calculators")
    p_index.add_argument("--mu", type=int, required=True)
    p_index.add_argument("--n", type=int, default=2)
    p_index.add_argument("--genus", type=int, required=True)
    p_index.add_argument("--marked", type=int, default=0)
    p_index.add_argument("--k-total", type=int, default=0)
    p_index.add_argument("--h1", type=int, default=None)
    p_index.add_argument(
        "--complex", dest="use_complex", action="store_true",
        help="report complex dimensions (half of even real ones)",
    )
    p_index.set_defaults(func=_cmd_index)

    p_saddle = sub.add_parser("saddle", help="residue form inertia")
    p_saddle.add_argument("--k", type=int, required=True)
    p_saddle.add_argument("--l", type=int, required=True)
    p_saddle.add_argument(
        "--poly", required=True,
        help="comma list of rationals, e.g. 2,-1,0; a negative first "
        "coefficient is written --poly=-1,2",
    )
    p_saddle.add_argument("--nu", type=int, default=0)
    p_saddle.set_defaults(func=_cmd_saddle)

    p_node = sub.add_parser("node", help="node gluing geometry checks")
    p_node.add_argument("--lambda", dest="lam", required=True, help="e.g. 0.1+0i")
    p_node.add_argument(
        "--check", choices=("volume", "gluing", "radius", "metric"), default="volume"
    )
    p_node.add_argument("--grid", type=_positive_int, default=200)
    p_node.add_argument("--z", default="0.5+0i", help="sample point for --check metric")
    p_node.set_defaults(func=_cmd_node)

    p_decay = sub.add_parser("decay", help="cylinder band energies and decay")
    p_decay.add_argument(
        "--modes", required=True,
        help="m:re,im,re,im;m2:... (pairs per coordinate); a negative "
        "first mode is written --modes=-1:1,0",
    )
    p_decay.add_argument("--length", type=int, default=10)
    p_decay.add_argument("--k", type=int, default=1, help="band for the truncation")
    p_decay.set_defaults(func=_cmd_decay)

    p_branch = sub.add_parser("branch", help="branch invariants")
    p_branch.add_argument("--type", help="monomial model of a cusp type")
    p_branch.add_argument("--file", help="branch JSON file")
    p_branch.add_argument("--other-type", help="second branch for intersection")
    p_branch.add_argument("--other-file")
    p_branch.set_defaults(func=_cmd_branch)

    p_feas = sub.add_parser("feasibility", help="degree feasibility counts")
    p_feas.add_argument("--cp2-degree", type=int, required=True)
    p_feas.add_argument(
        "--all-splittings", action="store_true",
        help="check the closed form by a dynamic program over all splittings",
    )
    p_feas.set_defaults(func=_cmd_feasibility)

    p_verify = sub.add_parser("verify", help="run oracle cross-check suites")
    p_verify.add_argument(
        "--suite",
        default="all",
        help="a suite name or 'all'; an unknown name lists the suites",
    )
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.set_defaults(func=_cmd_verify)

    # every subcommand accepts --json (only feasibility reads it), last in usage
    for subparser in sub.choices.values():
        subparser.add_argument("--json", action="store_true")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, ok = args.func(args)
    except (PseudocurveError, ValueError, OverflowError, OSError) as exc:
        sys.stderr.write(json.dumps({"error": str(exc)}) + "\n")
        return DOMAIN_EXIT
    print(json.dumps(payload, sort_keys=True))
    return 0 if ok else VERIFY_EXIT


if __name__ == "__main__":
    sys.exit(main())
