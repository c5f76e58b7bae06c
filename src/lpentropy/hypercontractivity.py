"""Hypercontractivity integrals for the Gaussian-type entropy potential.

With phi(x) = (n/2) ln(A x + B) and the variance curve
v(s) = lambda s^2/(s-1) - B/A, the Lp -> Lq smoothing of the heat
semigroup is governed by two integrals along the exponent path:

    t = int_p^q phi'(v(s)) / (4 (s-1)) ds        (time to contract)
    m = int_p^q ( phi(v(s)) - v(s) phi'(v(s)) ) / s^2 ds   (log-norm budget)

Both are computed by quadrature after the substitution sigma = 1/s (which
makes q = infinity a finite endpoint) and t is cross-checked against its
closed form (n/(8 lambda)) (1/p - 1/q).  For the full path (1, infinity)
the check is against the ultracontractive heat-kernel bound

    m <= -(n/2) ln(4 pi t) + (2B/(3A)) t,   valid for t <= (n/2)(A/B);

the two sides agree identically in lambda exactly when A is the sharp
L2 entropy constant 2/(n pi e).  The module also provides the on-diagonal
periodic heat kernel used to test that bound on a flat torus, and the
curvature lower bound for the zeroth-order constant B.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import AccuracyNotMet, DomainError, OracleDisagreement, Record
from .manifold_geometry import ManifoldModel

__all__ = [
    "HCReport",
    "bakry_integrals",
    "UltraReport",
    "ultracontractivity_check",
    "HeatNormReport",
    "torus_heat_norm",
    "curvature_second_constant_bound",
]


@dataclass(frozen=True)
class HCReport(Record):
    """One evaluation of the hypercontractivity integrals."""

    p_from: float
    q_to: float
    lam: float
    t: float
    t_closed: float
    m: float
    bound_rhs: float
    in_range: bool
    passed: bool
    quad_error: dict


def _variance_floor(p_from: float, q_to: float) -> float:
    """max of (s-1)/s^2 over [p_from, q_to]; attained at s = 2 when inside."""
    h = lambda s: (s - 1.0) / s**2
    if p_from <= 2.0 <= q_to:
        return 0.25
    hi = 0.0 if math.isinf(q_to) else h(q_to)
    return max(h(p_from), hi)


def _check_args(n: int, a_const: float, b_const: float, slack: float) -> None:
    if int(n) != n or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    if not (0 < a_const < math.inf and 0 <= b_const < math.inf):
        raise DomainError(f"need finite A > 0 and B >= 0, got ({a_const}, {b_const})")
    if not 0 <= slack < math.inf:
        raise DomainError(f"need a finite slack >= 0, got {slack}")


def bakry_integrals(n: int, a_const: float, b_const: float, lam: float,
                    p_from: float = 1.0, q_to: float = math.inf,
                    slack: float = 0.05) -> HCReport:
    """Quadrature values of the t and m integrals with built-in cross-checks.

    Raises DomainError if the variance curve dips below zero on the
    exponent path (the potential is then outside its admissible domain)
    and OracleDisagreement if the quadrature t drifts from the closed form
    by more than 1e-10 relative.
    """
    _check_args(n, a_const, b_const, slack)
    if not 0 < lam < math.inf:
        raise DomainError(f"need a finite lambda > 0, got {lam}")
    if not (1.0 <= p_from and p_from < q_to):
        raise DomainError(f"need 1 <= p_from < q_to, got ({p_from}, {q_to})")
    floor = _variance_floor(p_from, q_to)
    if lam * a_const < b_const * floor * (1.0 - 1e-12):
        raise DomainError(
            f"variance curve is negative on the path: need lambda >= "
            f"{b_const * floor / a_const:.6g} for (A, B) = ({a_const}, {b_const})"
        )

    ratio = b_const / a_const

    def phi(x: float) -> float:
        return 0.5 * n * math.log(a_const * x + b_const)

    def phi_prime(x: float) -> float:
        return 0.5 * n * a_const / (a_const * x + b_const)

    def v_of(s: float) -> float:
        return lam * s * s / (s - 1.0) - ratio

    # sigma = 1/s turns the interval into a finite one (q = inf -> 0)
    sig_lo = 0.0 if math.isinf(q_to) else 1.0 / q_to
    sig_hi = 1.0 / p_from

    def t_integrand(sig: float) -> float:
        s = 1.0 / sig
        return phi_prime(v_of(s)) / (4.0 * (s - 1.0)) * s * s

    def m_integrand(sig: float) -> float:
        s = 1.0 / sig
        x = v_of(s)
        return phi(x) - x * phi_prime(x)

    # imported here, the one user of scipy in this module, so that
    # torus_heat_norm and the curvature bound load numpy without scipy
    from scipy import integrate

    t_val, t_err = integrate.quad(t_integrand, sig_lo, sig_hi, epsabs=1e-13,
                                  epsrel=1e-12, limit=300)
    m_val, m_err = integrate.quad(m_integrand, sig_lo, sig_hi, epsabs=1e-13,
                                  epsrel=1e-12, limit=300)
    if t_err > 1e-8 * max(abs(t_val), 1e-3) or m_err > 1e-8 * max(abs(m_val), 1e-3):
        raise AccuracyNotMet(
            f"exponent-path quadrature did not converge (errors {t_err:.2e}, {m_err:.2e})"
        )
    q_inv = 0.0 if math.isinf(q_to) else 1.0 / q_to
    t_closed = n / (8.0 * lam) * (1.0 / p_from - q_inv)
    if abs(t_val - t_closed) > 1e-10 * max(abs(t_closed), 1e-300):
        raise OracleDisagreement(
            f"time integral {t_val!r} disagrees with closed form {t_closed!r}"
        )

    full_path = p_from == 1.0 and math.isinf(q_to)
    bound_rhs = math.nan
    in_range = False
    passed = None
    if full_path:
        bound_rhs = -0.5 * n * math.log(4.0 * math.pi * t_closed) \
            + (2.0 * b_const / (3.0 * a_const)) * t_closed
        in_range = b_const == 0 or t_closed <= 0.5 * n * a_const / b_const
        passed = bool(m_val <= bound_rhs + slack * abs(m_val)) if in_range else None
    return HCReport(
        p_from=p_from, q_to=q_to, lam=lam, t=t_val, t_closed=t_closed, m=m_val,
        bound_rhs=bound_rhs, in_range=in_range, passed=passed,
        quad_error={"t": t_err, "m": m_err},
    )


@dataclass(frozen=True)
class UltraReport(Record):
    """Heat-bound comparison across a grid of contraction times."""

    rows: tuple
    all_pass_in_range: bool
    slack: float


def ultracontractivity_check(n: int, a_const: float, b_const: float, t_grid,
                             slack: float = 0.05) -> UltraReport:
    """Evaluate the (1, infinity) bound at each contraction time.

    Each t fixes lambda = n/(8t).  Rows outside the bound's validity range
    t <= (n/2)(A/B), or with an inadmissible variance curve, are reported
    but excluded from the overall verdict.  Invalid input (A, B, slack, or a
    t that is not finite and positive) raises DomainError instead.
    """
    _check_args(n, a_const, b_const, slack)
    rows = []
    verdict = True
    any_in_range = False
    for t in t_grid:
        t = float(t)
        if not 0 < t < math.inf:
            raise DomainError(f"contraction times must be finite and positive, got {t}")
        lam = n / (8.0 * t)
        try:
            rep = bakry_integrals(n, a_const, b_const, lam, slack=slack)
        except DomainError as exc:
            rows.append({"t": t, "lam": lam, "admissible": False, "note": str(exc)})
            continue
        row = {"t": t, "lam": lam, "admissible": True, "m": rep.m,
               "bound_rhs": rep.bound_rhs, "in_range": rep.in_range,
               "passed": rep.passed}
        rows.append(row)
        if rep.in_range:
            any_in_range = True
            verdict = verdict and bool(rep.passed)
    return UltraReport(rows=tuple(rows), all_pass_in_range=verdict and any_in_range,
                       slack=slack)


@dataclass(frozen=True)
class HeatNormReport(Record):
    """On-diagonal heat kernel of a flat cubic torus at time t."""

    value: float
    gaussian_factor: float
    lattice_factor: float | None
    terms: int
    long_time_limit: float


def torus_heat_norm(n: int, side: float, t: float) -> HeatNormReport:
    """k_t(x, x) on the torus of side L: (4 pi t)^{-n/2} ( sum_j e^{-(jL)^2/4t} )^n.

    The lattice sum is truncated once a term drops below 1e-18; for small
    t the value approaches the Euclidean kernel, for large t it tends to
    1/volume.  By Poisson summation the lattice sum equals
    (sqrt(4 pi t)/L) sum_k e^{-4 pi^2 k^2 t/L^2}; once every k != 0 term of
    that dual sum is below the same cutoff, the value is 1/volume to double
    precision and is returned as such, with terms = 0 and the lattice
    factor k_t / gaussian, or None once the Gaussian factor underflows and
    that ratio leaves the float range.
    """
    if int(n) != n or n < 1:
        raise DomainError(f"dimension must be a positive integer, got {n}")
    if side <= 0 or t <= 0:
        raise DomainError("need side > 0 and t > 0")
    if not (math.isfinite(side) and math.isfinite(t)):
        raise DomainError(f"need finite side and t, got side={side}, t={t}")
    gauss = (4.0 * math.pi * t) ** (-0.5 * n)
    limit = side ** (-float(n))
    # terms below 1e-18 cannot move the sum at double precision
    if 4.0 * math.pi**2 * t / (side * side) > math.log(1e18):
        ratio = limit / gauss if gauss > 0 else math.inf
        return HeatNormReport(
            value=limit,
            gaussian_factor=gauss,
            lattice_factor=ratio if math.isfinite(ratio) else None,
            terms=0,
            long_time_limit=limit,
        )
    j_max = int(math.ceil(math.sqrt(4.0 * t * math.log(1e18)) / side))
    j = np.arange(1, j_max + 1)
    s = 1.0 + 2.0 * float(np.sum(np.exp(-((j * side) ** 2) / (4.0 * t))))
    return HeatNormReport(
        value=gauss * s**n,
        gaussian_factor=gauss,
        lattice_factor=s**n,
        terms=j_max,
        long_time_limit=limit,
    )


def curvature_second_constant_bound(model: ManifoldModel) -> float:
    """Lower bound (2 n pi e)^{-1} max R for the zeroth-order constant.

    Any constant B making the sharp-constant entropy inequality valid on
    the model manifold must be at least this large; it is zero exactly
    when the scalar curvature is nowhere positive (flat torus).
    """
    return max(model.scalar_curvature, 0.0) / (2.0 * model.dimension * math.pi * math.e)
