"""Command line interface.

Every subcommand prints a single JSON document to stdout with the resolved
configuration and the result, so runs are reproducible and diffable.  Exit
codes: 0 success, 1 domain error (bad parameters or profiles), 2 failed
convergence or internal cross-check, 3 failed property expectation
(e.g. --expect), 64 usage error.

The subcommands are declared in one table, `_COMMANDS`: a handler, a help
line and the argument specs, with the groups that several subcommands
share (--n/--p, the model group, the descent group, --out) declared once.
A handler runs the library and returns (result, rows): the JSON result and
the table that --out writes, or None for a run without a table, where
--out is a domain error.  `main` alone writes the --out table, prints the
document and maps outcomes to exit codes.

Each handler imports the library modules it runs, and nothing above the
handlers imports numpy or scipy: parsing, --help, --version and the
closed-form `constants` subcommand start without either.  A library
module that needs scipy in only some of its functions imports it inside
them, so `extremal`, `deficit`, `bubble`, `witness`, `heat-norm` and `hc`
load numpy alone; `gn-estimate`, `gn-limit`, `minimize` and `nu-scan` load
scipy.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from typing import TYPE_CHECKING

from . import __version__
from .errors import ConvergenceError, DomainError

if TYPE_CHECKING:
    from .manifold_geometry import ManifoldModel

_EXIT_DOMAIN = 1
_EXIT_CONVERGENCE = 2
_EXIT_EXPECTATION = 3
_EXIT_USAGE = 64


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(_EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _float_list(text: str) -> list:
    try:
        values = [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError("expected at least one number")
    return values


def _model_from(args) -> ManifoldModel:
    from .manifold_geometry import ManifoldModel

    return ManifoldModel(kind=args.model, dimension=args.n, scale=args.scale)


def _emit(args, result: dict) -> None:
    doc = {
        "tool": "lpentropy",
        "version": __version__,
        "command": args.command,
        "config": vars(args),
        "result": result,
    }
    print(json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False))


def _finite(obj):
    """obj with every infinite or NaN float replaced by None (JSON null).

    Strict JSON has no Infinity or NaN; an unbounded parameter (hc's
    default --q-to) or an undefined entry (witness eps_star without a
    violation) is written as null instead.
    """
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _finite(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_finite(v) for v in obj]
    return obj


def _write_rows(path: str, rows) -> None:
    rows = [dict(r) for r in rows]
    keys = sorted({k for r in rows for k in r})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommand handlers: each returns (result, rows for --out or None)


def _cmd_constants(args) -> tuple:
    from .constants import (
        InequalityParams,
        derived_exponents,
        dpd_parameters,
        entropy_best_constant,
        sobolev_bound_constant,
    )

    result = {"entropy_constant": entropy_best_constant(args.n, args.p)}
    if args.p < args.n:
        result["sobolev_constant"] = sobolev_bound_constant(args.n, args.p)
    if args.q is not None and args.r is not None:
        params = InequalityParams(n=args.n, p=args.p, q=args.q, r=args.r)
        exps = derived_exponents(params)
        result["exponents"] = {
            "theta": exps.theta,
            "alpha": exps.alpha,
            "p_star": exps.p_star,
            "degenerate": exps.degenerate,
        }
    if args.s is not None:
        par = dpd_parameters(args.n, args.p, args.s)
        result["one_parameter_family"] = {"q": par.q, "r": par.r}
    return result, None


def _cmd_extremal(args) -> tuple:
    from .constants import entropy_best_constant
    from .profiles import extremal_integrals, extremal_spec

    spec = extremal_spec(args.n, args.p, args.b)
    integrals = extremal_integrals(args.n, args.p, args.b, n_nodes=args.n_nodes)
    a0 = entropy_best_constant(args.n, args.p)
    saturation = integrals.entropy - (args.n / args.p) * math.log(a0 * integrals.grad_energy)
    return {
        "amplitude": spec.amplitude,
        "shape_power": spec.shape_power,
        "support_radius": spec.support_radius(),
        "integrals": integrals.as_dict(),
        "saturation_residual": saturation,
    }, None


def _cmd_deficit(args) -> tuple:
    from .euclidean_inequalities import deficit_report, limit_pde_residual
    from .profiles import RadialProfile, extremal_profile

    if args.C is not None and not args.pde_residual:
        raise DomainError("--C is the coefficient of --pde-residual, which is not given")
    if args.profile is not None:
        u = RadialProfile.from_csv(args.profile, dimension=args.n)
    else:
        u = extremal_profile(args.n, args.p, args.b, n_nodes=args.n_nodes)
    result = deficit_report(u, args.p).as_dict()
    if args.pde_residual:
        rep = limit_pde_residual(u, args.p, "fit" if args.C is None else args.C)
        result["pde_residual"] = rep.as_dict()
    return result, None


def _cmd_gn_estimate(args) -> tuple:
    from .constants import InequalityParams
    from .gn_estimator import estimate_gn_constant

    params = InequalityParams(n=args.n, p=args.p, q=args.q, r=args.r)
    est = estimate_gn_constant(params, n_nodes=args.n_nodes, ascent_iters=args.ascent_iters)
    return est.as_dict(), None


def _cmd_gn_limit(args) -> tuple:
    from .gn_estimator import limit_scan

    rows = limit_scan(args.n, args.p, args.q_list, n_nodes=args.n_nodes,
                      ascent_iters=args.ascent_iters)
    return {"rows": [dict(r) for r in rows]}, rows


def _cmd_bubble(args) -> tuple:
    from .manifold_geometry import fit_expansion

    model = _model_from(args)
    report = fit_expansion(model, args.p, args.b, delta=args.delta,
                           eps_grid=args.eps_grid, n_nodes=args.n_nodes)
    return report.as_dict(), report.rows


def _cmd_witness(args) -> tuple:
    from .manifold_geometry import lower_bound_witness

    model = _model_from(args)
    report = lower_bound_witness(model, args.p, args.a_const, args.b_const,
                                 eps_grid=args.eps_grid, b=args.b,
                                 delta=args.delta, n_nodes=args.n_nodes)
    return report.as_dict(), report.rows


def _cmd_minimize(args) -> tuple:
    from .manifold_minimizer import minimize_gn_functional

    model = _model_from(args)
    res = minimize_gn_functional(model, args.p, args.q, args.C,
                                 n_nodes=args.n_nodes, max_iters=args.max_iters,
                                 seed=args.seed)
    return res.as_dict(), ({"coordinate": float(x), "u": float(v)}
                           for x, v in zip(res.profile.grid, res.profile.values))


def _cmd_nu_scan(args) -> tuple:
    from .manifold_minimizer import infimum_scan

    model = _model_from(args)
    rows = infimum_scan(model, args.p, args.q_list, args.C,
                        n_nodes=args.n_nodes, max_iters=args.max_iters, seed=args.seed)
    return {"rows": [dict(r) for r in rows]}, rows


def _cmd_hc(args) -> tuple:
    from .hypercontractivity import bakry_integrals, ultracontractivity_check

    if args.t_grid is not None:
        if args.lam is not None or (args.p_from, args.q_to) != (1.0, math.inf):
            raise DomainError("--t-grid runs the full path (1, infinity) with lambda = n/(8t) "
                              "at each t: it takes no --lambda, --p-from or --q-to")
        report = ultracontractivity_check(args.n, args.A, args.B, args.t_grid,
                                          slack=args.slack)
        return report.as_dict(), report.rows
    if args.lam is None:
        raise DomainError("hc needs either --lambda or --t-grid")
    rep = bakry_integrals(args.n, args.A, args.B, args.lam,
                          p_from=args.p_from, q_to=args.q_to, slack=args.slack)
    return rep.as_dict(), None


def _cmd_heat_norm(args) -> tuple:
    from .hypercontractivity import torus_heat_norm

    result = torus_heat_norm(args.n, args.scale, args.t).as_dict()
    # the flat torus has no positive scalar curvature, so
    # curvature_second_constant_bound is 0 in every dimension
    result["curvature_bound_B"] = 0.0
    return result, None


# ---------------------------------------------------------------------------
# the subcommand table


def _arg(flag: str, type=float, **kwargs) -> tuple:
    """One argument spec: the flag and its add_argument keywords."""
    return flag, ({"type": type} if type else {}) | kwargs


def _nodes(default: int, **kwargs) -> tuple:
    return _arg("--n-nodes", int, default=default, **kwargs)


def _out(what: str) -> tuple:
    return _arg("--out", None, help=f"write {what} to this CSV file")


_N = _arg("--n", int, required=True)
_N_P = (_N, _arg("--p", required=True))
_MODEL = (_arg("--model", None, choices=["sphere", "torus"], required=True), *_N_P)
_B = _arg("--b", default=1.0)
_Q = _arg("--q", required=True)
_C = _arg("--C", required=True)
_Q_LIST = _arg("--q-list", _float_list, required=True)
_EPS_GRID = _arg("--eps-grid", _float_list, required=True)
_SCALE = _arg("--scale", default=1.0)
_ASCENT = (_nodes(4000), _arg("--ascent-iters", int, default=250))
_DESCENT = (_SCALE, _nodes(600), _arg("--max-iters", int, default=60_000),
            _arg("--seed", int, default=0))
_BUBBLE_NODES = _nodes(200_000, help="most nodes the bubble rule may use per epsilon; "
                                     "about 1 000 suffice at p = 2")

# name: (handler, help line, argument specs in --help order)
_COMMANDS = {
    "constants": (_cmd_constants, "closed-form constants and exponents", (
        *_N_P, _arg("--q"), _arg("--r"), _arg("--s", help="one-parameter family index (> p)"))),
    "extremal": (_cmd_extremal, "extremal profile integrals, two routes", (
        *_N_P, _B, _nodes(800_000, help="most nodes of the finest level; the quadrature "
                                        "route stops at the first level that is accurate"))),
    "deficit": (_cmd_deficit, "entropy deficit of a profile", (
        *_N_P, _B, _arg("--profile", None, help="CSV file with columns r,u (overrides --b)"),
        _nodes(200_000),
        _arg("--pde-residual", None, action="store_true",
             help="also report the weak residual of the limiting PDE"),
        _arg("--C", help="fixed zeroth-order PDE coefficient"))),
    "gn-estimate": (_cmd_gn_estimate, "variational interpolation constant estimate", (
        *_N_P, _Q, _arg("--r", required=True), *_ASCENT)),
    "gn-limit": (_cmd_gn_limit, "estimates along r = p, q -> p", (
        *_N_P, _Q_LIST, *_ASCENT, _out("per-q rows"))),
    "bubble": (_cmd_bubble, "bubble expansion coefficients vs closed forms", (
        *_MODEL, _B, _arg("--scale", default=1.0, help="sphere radius or torus side"),
        _arg("--delta", required=True), _EPS_GRID, _BUBBLE_NODES, _out("per-epsilon rows"))),
    "witness": (_cmd_witness, "bubble scan against a candidate inequality", (
        *_MODEL, _arg("--a-const", required=True, help="gradient-term constant A"),
        _arg("--b-const", required=True, help="zeroth-order constant B"), _B, _SCALE,
        _arg("--delta"), _EPS_GRID, _BUBBLE_NODES,
        _arg("--expect", None, choices=["violation", "none"]), _out("per-epsilon rows"))),
    "minimize": (_cmd_minimize, "minimize the constrained functional", (
        *_MODEL, _Q, _C, *_DESCENT, _out("the minimizing profile"))),
    "nu-scan": (_cmd_nu_scan, "infimum values across q", (
        *_MODEL, _Q_LIST, _C, *_DESCENT, _out("per-q rows"))),
    "hc": (_cmd_hc, "hypercontractivity integrals and heat bound", (
        _N, _arg("--A", required=True), _arg("--B", required=True), _arg("--lambda", dest="lam"),
        _arg("--p-from", default=1.0), _arg("--q-to", default=math.inf),
        _arg("--t-grid", _float_list), _arg("--slack", default=0.05), _out("per-t rows"))),
    "heat-norm": (_cmd_heat_norm, "periodic on-diagonal heat kernel", (
        _N, _arg("--scale", required=True, help="torus side length"), _arg("--t", required=True))),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="lpentropy",
                     description="Sharp entropy and interpolation inequality numerics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)
    for name, (_, help_text, specs) in _COMMANDS.items():
        sp = sub.add_parser(name, help=help_text)
        for flag, kwargs in specs:
            sp.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        result, rows = _COMMANDS[args.command][0](args)
        out = vars(args).get("out")
        if out:
            if rows is None:
                raise DomainError(f"this {args.command} run has no table to write to --out")
            _write_rows(out, rows)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    _emit(args, result)
    expect = vars(args).get("expect")
    if expect is not None:
        observed = "violation" if result["violated"] else "none"
        if observed != expect:
            print(f"expected {expect}, observed {observed}", file=sys.stderr)
            return _EXIT_EXPECTATION
    return 0


if __name__ == "__main__":
    sys.exit(main())
