"""Command line interface.

Every subcommand prints a single JSON document to stdout with the resolved
configuration and the result, so runs are reproducible and diffable.  Exit
codes: 0 success, 1 domain error (bad parameters or profiles), 2 failed
convergence or internal cross-check, 3 failed property expectation
(e.g. --expect), 64 usage error.

Each handler imports the library modules it runs, and nothing above the
handlers imports numpy or scipy: parsing, --help, --version and the
closed-form `constants` subcommand start without either.
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

    if args.model == "sphere":
        return ManifoldModel.sphere(args.n, args.scale)
    return ManifoldModel.torus(args.n, args.scale)


def _emit(command: str, args, result: dict) -> None:
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func",) and not k.startswith("_")
    }
    doc = {
        "tool": "lpentropy",
        "version": __version__,
        "command": command,
        "config": config,
        "result": result,
    }
    print(json.dumps(_finite(doc), indent=2, sort_keys=True, allow_nan=False,
                     default=_jsonable))


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


def _jsonable(obj):
    import numpy as np

    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)!r}")


def _write_rows(path: str, rows) -> None:
    rows = [dict(r) for r in rows]
    keys = sorted({k for r in rows for k in r})
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=keys)
        writer.writeheader()
        writer.writerows(rows)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_constants(args) -> int:
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
    _emit("constants", args, result)
    return 0


def _cmd_extremal(args) -> int:
    from .constants import entropy_best_constant
    from .profiles import extremal_integrals, extremal_spec

    spec = extremal_spec(args.n, args.p, args.b)
    integrals = extremal_integrals(args.n, args.p, args.b, n_nodes=args.n_nodes)
    a0 = entropy_best_constant(args.n, args.p)
    saturation = integrals.entropy - (args.n / args.p) * math.log(a0 * integrals.grad_energy)
    _emit("extremal", args, {
        "amplitude": spec.amplitude,
        "shape_power": spec.shape_power,
        "support_radius": spec.support_radius(),
        "integrals": integrals.as_dict(),
        "saturation_residual": saturation,
    })
    return 0


def _cmd_deficit(args) -> int:
    from .euclidean_inequalities import entropy_deficit, limit_pde_residual
    from .profiles import RadialProfile, entropy_integral, extremal_profile, grad_energy, lp_norm

    if args.profile is not None:
        u = RadialProfile.from_csv(args.profile, dimension=args.n)
    else:
        u = extremal_profile(args.n, args.p, args.b, n_nodes=args.n_nodes)
    result = {
        "deficit": entropy_deficit(u, args.p),
        "lp_norm": lp_norm(u, args.p),
        "grad_energy": grad_energy(u, args.p),
        "entropy": entropy_integral(u, args.p),
    }
    if args.pde_residual:
        rep = limit_pde_residual(u, args.p, "fit" if args.C is None else args.C)
        result["pde_residual"] = rep.as_dict()
    _emit("deficit", args, result)
    return 0


def _cmd_gn_estimate(args) -> int:
    from .constants import InequalityParams
    from .gn_estimator import estimate_gn_constant

    params = InequalityParams(n=args.n, p=args.p, q=args.q, r=args.r)
    est = estimate_gn_constant(params, n_nodes=args.n_nodes, ascent_iters=args.ascent_iters)
    _emit("gn-estimate", args, est.as_dict())
    return 0


def _cmd_gn_limit(args) -> int:
    from .gn_estimator import limit_scan

    rows = limit_scan(args.n, args.p, args.q_list, n_nodes=args.n_nodes,
                      ascent_iters=args.ascent_iters)
    if args.out:
        _write_rows(args.out, rows)
    _emit("gn-limit", args, {"rows": [dict(r) for r in rows]})
    return 0


def _cmd_bubble(args) -> int:
    from .manifold_geometry import fit_expansion

    model = _model_from(args)
    report = fit_expansion(model, args.p, args.b, delta=args.delta,
                           eps_grid=args.eps_grid, n_nodes=args.n_nodes)
    if args.out:
        _write_rows(args.out, report.rows)
    _emit("bubble", args, report.as_dict())
    return 0


def _cmd_witness(args) -> int:
    from .manifold_geometry import lower_bound_witness

    model = _model_from(args)
    report = lower_bound_witness(model, args.p, args.a_const, args.b_const,
                                 eps_grid=args.eps_grid, b=args.b,
                                 delta=args.delta, n_nodes=args.n_nodes)
    if args.out:
        _write_rows(args.out, report.rows)
    _emit("witness", args, report.as_dict())
    if args.expect is not None:
        observed = "violation" if report.violated else "none"
        if observed != args.expect:
            print(f"expected {args.expect}, observed {observed}", file=sys.stderr)
            return _EXIT_EXPECTATION
    return 0


def _cmd_minimize(args) -> int:
    from .manifold_minimizer import minimize_gn_functional

    model = _model_from(args)
    res = minimize_gn_functional(model, args.p, args.q, args.C,
                                 n_nodes=args.n_nodes, max_iters=args.max_iters,
                                 seed=args.seed)
    if args.out:
        _write_rows(args.out, [
            {"coordinate": float(x), "u": float(v)}
            for x, v in zip(res.profile.grid, res.profile.values)
        ])
    _emit("minimize", args, res.as_dict())
    return 0


def _cmd_nu_scan(args) -> int:
    from .manifold_minimizer import infimum_scan

    model = _model_from(args)
    rows = infimum_scan(model, args.p, args.q_list, args.C,
                        n_nodes=args.n_nodes, max_iters=args.max_iters, seed=args.seed)
    if args.out:
        _write_rows(args.out, rows)
    _emit("nu-scan", args, {"rows": [dict(r) for r in rows]})
    return 0


def _cmd_hc(args) -> int:
    from .hypercontractivity import bakry_integrals, ultracontractivity_check

    if args.t_grid is not None:
        report = ultracontractivity_check(args.n, args.A, args.B, args.t_grid,
                                          slack=args.slack)
        if args.out:
            _write_rows(args.out, report.rows)
        _emit("hc", args, report.as_dict())
        return 0
    if args.lam is None:
        raise DomainError("hc needs either --lambda or --t-grid")
    rep = bakry_integrals(args.n, args.A, args.B, args.lam,
                          p_from=args.p_from, q_to=args.q_to, slack=args.slack)
    _emit("hc", args, rep.as_dict())
    return 0


def _cmd_heat_norm(args) -> int:
    from .hypercontractivity import curvature_second_constant_bound, torus_heat_norm
    from .manifold_geometry import ManifoldModel

    report = torus_heat_norm(args.n, args.scale, args.t)
    result = report.as_dict()
    result["curvature_bound_B"] = curvature_second_constant_bound(
        ManifoldModel.torus(max(args.n, 2), args.scale)
    )
    _emit("heat-norm", args, result)
    return 0


# ---------------------------------------------------------------------------


def _build_parser() -> _Parser:
    parser = _Parser(prog="lpentropy",
                     description="Sharp entropy and interpolation inequality numerics")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    def add(name, handler, help_text):
        sp = sub.add_parser(name, help=help_text)
        sp.set_defaults(func=handler)
        return sp

    sp = add("constants", _cmd_constants, "closed-form constants and exponents")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float)
    sp.add_argument("--r", type=float)
    sp.add_argument("--s", type=float, help="one-parameter family index (> p)")

    sp = add("extremal", _cmd_extremal, "extremal profile integrals, two routes")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--n-nodes", type=int, default=800_000)

    sp = add("deficit", _cmd_deficit, "entropy deficit of a profile")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--profile", help="CSV file with columns r,u (overrides --b)")
    sp.add_argument("--n-nodes", type=int, default=200_000)
    sp.add_argument("--pde-residual", action="store_true",
                    help="also report the weak residual of the limiting PDE")
    sp.add_argument("--C", type=float, help="fixed zeroth-order PDE coefficient")

    sp = add("gn-estimate", _cmd_gn_estimate, "variational interpolation constant estimate")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--r", type=float, required=True)
    sp.add_argument("--n-nodes", type=int, default=4000)
    sp.add_argument("--ascent-iters", type=int, default=250)

    sp = add("gn-limit", _cmd_gn_limit, "estimates along r = p, q -> p")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q-list", type=_float_list, required=True)
    sp.add_argument("--n-nodes", type=int, default=4000)
    sp.add_argument("--ascent-iters", type=int, default=250)
    sp.add_argument("--out", help="write per-q rows to this CSV file")

    sp = add("bubble", _cmd_bubble, "bubble expansion coefficients vs closed forms")
    sp.add_argument("--model", choices=["sphere", "torus"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--scale", type=float, default=1.0, help="sphere radius or torus side")
    sp.add_argument("--delta", type=float, required=True)
    sp.add_argument("--eps-grid", type=_float_list, required=True)
    sp.add_argument("--n-nodes", type=int, default=200_000)
    sp.add_argument("--out", help="write per-epsilon rows to this CSV file")

    sp = add("witness", _cmd_witness, "bubble scan against a candidate inequality")
    sp.add_argument("--model", choices=["sphere", "torus"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--a-const", type=float, required=True, help="gradient-term constant A")
    sp.add_argument("--b-const", type=float, required=True, help="zeroth-order constant B")
    sp.add_argument("--b", type=float, default=1.0)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--delta", type=float)
    sp.add_argument("--eps-grid", type=_float_list, required=True)
    sp.add_argument("--n-nodes", type=int, default=200_000)
    sp.add_argument("--expect", choices=["violation", "none"])
    sp.add_argument("--out", help="write per-epsilon rows to this CSV file")

    sp = add("minimize", _cmd_minimize, "minimize the constrained functional")
    sp.add_argument("--model", choices=["sphere", "torus"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q", type=float, required=True)
    sp.add_argument("--C", type=float, required=True)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--n-nodes", type=int, default=600)
    sp.add_argument("--max-iters", type=int, default=60_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write the minimizing profile to this CSV file")

    sp = add("nu-scan", _cmd_nu_scan, "infimum values across q")
    sp.add_argument("--model", choices=["sphere", "torus"], required=True)
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--p", type=float, required=True)
    sp.add_argument("--q-list", type=_float_list, required=True)
    sp.add_argument("--C", type=float, required=True)
    sp.add_argument("--scale", type=float, default=1.0)
    sp.add_argument("--n-nodes", type=int, default=600)
    sp.add_argument("--max-iters", type=int, default=60_000)
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", help="write per-q rows to this CSV file")

    sp = add("hc", _cmd_hc, "hypercontractivity integrals and heat bound")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--A", type=float, required=True)
    sp.add_argument("--B", type=float, required=True)
    sp.add_argument("--lambda", dest="lam", type=float)
    sp.add_argument("--p-from", type=float, default=1.0)
    sp.add_argument("--q-to", type=float, default=math.inf)
    sp.add_argument("--t-grid", type=_float_list)
    sp.add_argument("--slack", type=float, default=0.05)
    sp.add_argument("--out", help="write per-t rows to this CSV file")

    sp = add("heat-norm", _cmd_heat_norm, "periodic on-diagonal heat kernel")
    sp.add_argument("--n", type=int, required=True)
    sp.add_argument("--scale", type=float, required=True, help="torus side length")
    sp.add_argument("--t", type=float, required=True)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"domain error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN
    except ConvergenceError as exc:
        print(f"convergence error: {exc}", file=sys.stderr)
        return _EXIT_CONVERGENCE
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return _EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
