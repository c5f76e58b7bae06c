"""Euclidean entropy / interpolation inequality checks on radial profiles.

The central quantity is the entropy deficit

    deficit(u) = (n/p) ln( K int |grad u|^p ) - int u^p ln(u^p),

for ||u||_p = 1 and K the sharp entropy constant: nonnegative for every
admissible profile and zero exactly on the extremal family.  The module
also exposes the logarithmic Hoelder interpolation gap, the critical
embedding entropy bound obtained by differentiating that interpolation
at q = p, a two-route check of d/dq log ||u||_q at q = p, and a weak
residual for the limiting nonlinear PDE

    Delta_p u + C u^{p-1} = K^{-1} ( u^{p-1} + (p/n) u^{p-1} ln u^p ),

with Delta_p u = -div(|grad u|^{p-2} grad u).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import entropy_best_constant
from .errors import DomainError, Record
from .profiles import RadialProfile, bump_basis, entropy_integral, grad_energy, lp_norm, plogp

__all__ = [
    "entropy_deficit",
    "holder_interpolation_gap",
    "embedding_entropy_slack",
    "LogNormDerivative",
    "log_norm_derivative",
    "PdeResidualReport",
    "limit_pde_residual",
]


def _check_p_range(u: RadialProfile, p: float) -> int:
    n = u.dimension
    if not 1 < p < n:
        raise DomainError(f"require 1 < p < n, got p={p}, n={n}")
    return n


def _normalized(u: RadialProfile, p: float, renormalize: bool) -> RadialProfile:
    norm = lp_norm(u, p)
    if norm <= 0 or not math.isfinite(norm):
        raise DomainError("profile has zero or non-finite Lp mass")
    if renormalize:
        return u.with_values(u.values / norm)
    if abs(norm - 1.0) > 1e-8:
        raise DomainError(
            f"profile is not Lp-normalized (||u||_p = {norm!r}); "
            "pass renormalize=True to rescale"
        )
    return u


def entropy_deficit(u: RadialProfile, p: float, renormalize: bool = True) -> float:
    """Sharp-constant entropy deficit of a radial profile; >= 0 up to quadrature.

    Dilation invariance of the underlying inequality means the deficit of
    any member of the extremal family vanishes regardless of its rate b.
    """
    n = _check_p_range(u, p)
    un = _normalized(u, p, renormalize)
    grad = grad_energy(un, p)
    # exactly constant values leave only finite-difference dust in grad,
    # so catch that case by inspection rather than by thresholding
    if grad <= 0 or np.ptp(un.values) == 0:
        raise DomainError("profile has zero gradient energy; deficit undefined")
    return (n / p) * math.log(entropy_best_constant(n, p) * grad) - entropy_integral(un, p)


def holder_interpolation_gap(u: RadialProfile, p: float, q: float) -> float:
    """Log form of the three-norm interpolation; <= 0 for p <= q <= p*.

    Returns ln(||u||_q / ||u||_p) + (1 - alpha) ln(||u||_p / ||u||_{p*})
    with alpha = (np - nq + pq)/(pq), which collapses to 0 exactly at both
    endpoints q = p and q = p*.
    """
    n = _check_p_range(u, p)
    p_star = n * p / (n - p)
    if not p <= q <= p_star * (1 + 1e-12):
        raise DomainError(f"require p <= q <= p* = {p_star:.6g}, got q={q}")
    alpha = (n * p - n * q + p * q) / (p * q)
    norm_p = lp_norm(u, p)
    norm_q = lp_norm(u, q)
    norm_ps = lp_norm(u, p_star)
    return math.log(norm_q / norm_p) + (1.0 - alpha) * math.log(norm_p / norm_ps)


def embedding_entropy_slack(u: RadialProfile, p: float, renormalize: bool = True) -> float:
    """Slack of the critical-norm entropy bound; >= 0 up to quadrature.

    For ||u||_p = 1:  int u^p ln(u^p) <= (n/p) ln( (int u^{p*})^{p/p*} ),
    obtained by differentiating the Hoelder interpolation at q = p.
    Returns RHS - LHS.
    """
    n = _check_p_range(u, p)
    un = _normalized(u, p, renormalize)
    p_star = n * p / (n - p)
    rhs = n * math.log(lp_norm(un, p_star))
    return rhs - entropy_integral(un, p)


@dataclass(frozen=True)
class LogNormDerivative:
    """Two routes to d/dq ln ||u||_q at q = p and their difference."""

    fd: float
    exact: float
    err: float


def log_norm_derivative(u: RadialProfile, p: float, dq: float) -> LogNormDerivative:
    """Finite-difference vs closed-form derivative of q -> ln ||u||_q at q = p.

    fd    = (1/dq) ln( ||u||_p / ||u||_{p-dq} )
    exact = (1/p) int (u^p / ||u||_p^p) ln( u / ||u||_p )

    The one-sided difference carries an O(dq) error, so err = |fd - exact|
    should shrink linearly as dq is halved.
    """
    if not p > 1:
        raise DomainError(f"require p > 1, got {p}")
    if not 0 < dq < p - 1:
        raise DomainError(f"require 0 < dq < p - 1, got dq={dq}")
    norm_p = lp_norm(u, p)
    norm_m = lp_norm(u, p - dq)
    fd = math.log(norm_p / norm_m) / dq
    un = u.with_values(u.values / norm_p)
    exact = entropy_integral(un, p) / (p * p)
    return LogNormDerivative(fd=fd, exact=exact, err=abs(fd - exact))


@dataclass(frozen=True)
class PdeResidualReport(Record):
    """Weak residual of the limiting PDE over a fixed bump test basis."""

    residual: float
    c_value: float
    c_fitted: bool
    per_test: tuple
    scale: float


def limit_pde_residual(u: RadialProfile, p: float, C="fit", n_tests: int = 12) -> PdeResidualReport:
    """Relative weak residual of the limiting PDE at the profile u.

    Tested against smooth compactly supported bumps v_k after one
    integration by parts of the p-Laplacian term:

        r_k = int |u'|^{p-2} u' v_k' dx + C int u^{p-1} v_k
              - K^{-1} int ( u^{p-1} + (p/n) u^{p-1} ln u^p ) v_k .

    C may be a number or "fit", in which case the scalar minimizing the
    l2 norm of (r_1, ..., r_K) is used (the residual is linear in C).
    The returned residual is normalized by the size of the individual
    terms, so values near 1 mean "not remotely a solution".
    """
    n = _check_p_range(u, p)
    if np.any(u.values <= 0):
        raise DomainError("limit_pde_residual requires a strictly positive profile")
    if int(n_tests) != n_tests or n_tests < 3:
        raise DomainError(f"need at least 3 test functions, got {n_tests}")
    inv_k = 1.0 / entropy_best_constant(n, p)
    mw = u.cell_measure()
    du = u.derivative()
    flux = np.sign(du) * np.abs(du) ** (p - 1.0)
    u_pm1 = u.values ** (p - 1.0)
    log_term = u_pm1 * p * np.log(u.values)

    # bumps in log-radius, centered between the 2% and 98% mass quantiles of u^p
    cum = np.cumsum(mw * u.values**p)
    if cum[-1] <= 0:
        raise DomainError("profile carries no mass for the test basis")
    cum /= cum[-1]
    log_r = np.log(u.grid)
    lo = float(np.interp(0.02, cum, log_r))
    hi = float(np.interp(0.98, cum, log_r))
    width = 1.6 * (hi - lo) / (int(n_tests) - 1)

    grad_terms, mass_terms, rhs_terms = [], [], []
    for v, dv in bump_basis(log_r, np.linspace(lo, hi, int(n_tests)), width, jacobian=u.grid):
        grad_terms.append(float(np.sum(mw * flux * dv)))
        mass_terms.append(float(np.sum(mw * u_pm1 * v)))
        rhs_terms.append(-inv_k * float(np.sum(mw * (u_pm1 + (p / n) * log_term) * v)))
    grad_t = np.array(grad_terms)
    mass_t = np.array(mass_terms)
    rhs_t = np.array(rhs_terms)

    base = grad_t + rhs_t
    if isinstance(C, str):
        if C != "fit":
            raise DomainError(f"C must be a number or 'fit', got {C!r}")
        c_val = -float(np.dot(base, mass_t) / np.dot(mass_t, mass_t))
        fitted = True
    else:
        c_val = float(C)
        fitted = False
    res = base + c_val * mass_t
    scale_vec = np.abs(grad_t) + abs(c_val) * np.abs(mass_t) + np.abs(rhs_t)
    scale = float(np.linalg.norm(scale_vec))
    if scale <= 0:
        raise DomainError("degenerate test basis: all weak-form terms vanish")
    return PdeResidualReport(
        residual=float(np.linalg.norm(res)) / scale,
        c_value=c_val,
        c_fitted=fitted,
        per_test=tuple(float(x) for x in res),
        scale=scale,
    )
