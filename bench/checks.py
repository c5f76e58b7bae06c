"""Output checks, one per acceptance criterion of the library's test suite.

Each check compares a call's output with an independent route (a closed
form, an identity, or a second computation) at the tolerance the matching
`tests/test_acceptance.py` criterion uses.  A check yields a residual and
a tolerance; residual / tolerance above 1 means it failed.  Checks of a
yes/no property use residual 0 or 1 against tolerance 0.5.

Checks of kind "identity" establish that a number is right; a miss fails
the call.  The one check of kind "convergence" (criterion 10's
Euler-Lagrange residual) measures whether the minimizer reached an optimum.
It fails a call only where an acceptance criterion holds those inputs to
that tolerance (the workload's `must_converge`); elsewhere a miss is
reported, and the call does not fail.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

#: the largest float, used as the ratio of a check whose residual is not finite
WORST = 1.7976931348623157e308


@dataclass(frozen=True)
class Check:
    name: str
    residual: float
    tol: float
    kind: str = "identity"

    @property
    def passed(self) -> bool:
        return math.isfinite(self.residual) and self.residual <= self.tol

    @property
    def ratio(self) -> float:
        return self.residual / self.tol if math.isfinite(self.residual) else WORST


def flag(name: str, ok: bool) -> Check:
    return Check(name, 0.0 if ok else 1.0, 0.5)


def rel(a: float, b: float) -> float:
    return abs(a - b) / abs(b)


# ---------------------------------------------------------------------------
# closed forms computed here, independently of the library


def entropy_constant(n: int, p: float) -> float:
    """(p/n) ((p-1)/e)^{p-1} pi^{-p/2} [Gamma(n/2+1) / Gamma(n(p-1)/p+1)]^{p/n}."""
    return ((p / n) * ((p - 1.0) / math.e) ** (p - 1.0) * math.pi ** (-0.5 * p)
            * math.exp((p / n) * (math.lgamma(0.5 * n + 1.0)
                                  - math.lgamma(n * (p - 1.0) / p + 1.0))))


def model_volume(kind: str, n: int, scale: float) -> float:
    if kind == "sphere":
        return 2.0 * math.pi ** (0.5 * (n + 1)) / math.gamma(0.5 * (n + 1)) * scale**n
    return scale**n


def constant_profile_value(kind: str, n: int, scale: float, p: float, q: float,
                           C: float) -> float:
    """J_q at u = volume^{-1/p}: no gradient energy, so C * (int u^q)^kappa."""
    theta = n * (p - q) / (n * p + p * q - n * q)
    kappa = p * (1.0 - theta) / (q * theta)
    return C * model_volume(kind, n, scale) ** (kappa * (1.0 - q / p))


def torus_heat_dual(n: int, side: float, t: float) -> float:
    """Poisson-summed periodic kernel: (1/L sum_k exp(-4 pi^2 k^2 t / L^2))^n."""
    a = 4.0 * math.pi**2 * t / side**2
    k_max = int(math.ceil(math.sqrt(math.log(1e18) / a)))
    s = 1.0 + 2.0 * sum(math.exp(-a * k * k) for k in range(1, k_max + 1))
    return (s / side) ** n


# ---------------------------------------------------------------------------
# one function per kind of output


def constants(n: int, p: float, q: float, r: float, result: dict) -> list:
    """Criterion 01 at p = 2, and the scaling identity that defines theta."""
    a0 = result["entropy_constant"]
    theta = result["exponents"]["theta"]
    scaling = -(n * p) / (r * theta) - (p - n) + n * p * (1.0 - theta) / (q * theta)
    return [
        Check("c01.entropy_constant_identity", abs(a0 * n * math.pi * math.e - 2.0), 1e-13),
        Check("constants.theta_scaling", abs(scaling), 1e-12 * (n * p / (r * theta))),
    ]


def extremal(n: int, p: float, integrals: dict) -> list:
    """Criterion 04 (two routes) and criterion 02 (saturation by the closed forms)."""
    saturation = integrals["entropy"] - (n / p) * math.log(
        entropy_constant(n, p) * integrals["grad_energy"])
    return [
        Check("c04.max_rel_difference", integrals["max_rel_difference"], 1e-8),
        Check("c02.saturation", abs(saturation), 1e-6),
    ]


def extremal_deficit(deficit: float) -> list:
    return [Check("c02.extremal_deficit", abs(deficit), 1e-6)]


def mixture_deficit(deficit: float) -> list:
    return [Check("c03.deficit_nonnegative", max(0.0, -deficit), 1e-8)]


def pde_residual(residual: float) -> list:
    """The weak residual is normalized by its terms, so it lies in [0, 1]."""
    return [flag("pde.residual_in_unit_interval", 0.0 <= residual <= 1.0)]


def gn_ceiling(n: int, p: float, value: float, name: str = "c06.estimate_below_ceiling") -> Check:
    """Criterion 06: an r = p estimate never exceeds the entropy constant by 1e-3."""
    a0 = entropy_constant(n, p)
    return Check(name, max(0.0, value - a0), 1e-3 * a0)


def limit_rows(n: int, p: float, rows: list) -> list:
    """Criterion 06 on every row, and a gap that shrinks as q increases."""
    ordered = sorted(rows, key=lambda row: row["q"])
    gaps = [row["rel_gap"] for row in ordered]
    out = [gn_ceiling(n, p, row["estimate"], "c06.limit_below_ceiling") for row in rows]
    out.append(flag("c06.gap_shrinks_toward_p", all(a > b for a, b in zip(gaps, gaps[1:]))))
    return out


def bubble(kind: str, fits: dict) -> list:
    """Criterion 08: sphere coefficients match curvature, torus ones vanish."""
    if kind == "sphere":
        return [
            Check("c08.sphere_mass_c2", fits["mass"]["rel_dev_c2"], 0.02),
            Check("c08.sphere_grad_c2", fits["grad"]["rel_dev_c2"], 0.05),
        ]
    sigmas = max(
        abs(fits["mass"]["c2"]) / fits["mass"]["c2_stderr"],
        abs(fits["grad"]["c2"]) / fits["grad"]["c2_stderr"],
        abs(fits["entropy"]["clog"]) / fits["entropy"]["clog_stderr"],
    )
    return [Check("c08.torus_flat_sigmas", sigmas, 3.0)]


def witness(n: int, p: float, a_const: float, report: dict) -> list:
    """Criterion 09: margin tends to (n/p) ln(A0/A) below A0; no violation at A0."""
    a0 = entropy_constant(n, p)
    if a_const < a0 * (1.0 - 1e-12):
        target = (n / p) * math.log(a0 / a_const)
        return [
            flag("c09.violated_below_sharp", report["violated"]),
            Check("c09.margin_vs_asymptote", abs(report["margin"] - target) / target, 0.02),
        ]
    worst = max(row["margin"] for row in report["rows"])
    return [flag("c09.no_violation_at_sharp", worst <= 0.0 and not report["violated"])]


def bakry(report: dict) -> list:
    """Criterion 11: quadrature time integral against n/(8 lambda) (1/p - 1/q)."""
    return [Check("c11.time_closed_form", rel(report["t"], report["t_closed"]), 1e-10)]


def ultracontractivity(report: dict) -> list:
    """Criterion 11: every in-range row satisfies the heat bound within its slack."""
    rows = [row for row in report["rows"] if row.get("in_range")]
    out = [flag("c11.rows_in_range", bool(rows)),
           flag("c11.all_pass_in_range", report["all_pass_in_range"])]
    if rows:
        out.append(max((Check("c11.heat_bound", max(0.0, row["m"] - row["bound_rhs"]),
                              report["slack"] * abs(row["m"])) for row in rows),
                       key=lambda c: c.ratio))
    return out


def heat_norm(n: int, side: float, t: float, value: float) -> list:
    """Criterion 12 by the Poisson-dual lattice sum, at its tolerance 1e-12."""
    return [Check("c12.heat_kernel_dual_route", rel(value, torus_heat_dual(n, side, t)), 1e-12)]


def minimizer(kind: str, n: int, scale: float, p: float, q: float, C: float,
              value: float, norm_gap: float, identity_gap: float, el_residual: float) -> list:
    """Criterion 10: unit norm, weight identity, constant ceiling, EL residual."""
    ceiling = constant_profile_value(kind, n, scale, p, q, C)
    return [
        Check("c10.unit_norm", norm_gap, 1e-10),
        Check("c10.weight_identity", identity_gap, 1e-10),
        Check("c10.below_constant_ceiling", max(0.0, value - ceiling), 1e-12 * ceiling),
        Check("c10.el_residual", el_residual, 1e-6, kind="convergence"),
    ]


def infimum_rows(kind: str, n: int, scale: float, p: float, C: float, rows: list) -> list:
    """Criterion 10 on every row, and criterion 06 on the reference estimate."""
    out = []
    for row in rows:
        closed = constant_profile_value(kind, n, scale, p, row["q"], C)
        out += [
            Check("c10.constant_value_closed_form", rel(row["constant_value"], closed), 1e-10),
            Check("c10.below_constant_ceiling", max(0.0, row["nu"] - row["constant_value"]),
                  1e-12 * row["constant_value"]),
            Check("c10.el_residual", row["el_residual"], 1e-6, kind="convergence"),
            gn_ceiling(n, p, 1.0 / row["inv_estimated_constant"], "c06.reference_below_ceiling"),
        ]
    return out
