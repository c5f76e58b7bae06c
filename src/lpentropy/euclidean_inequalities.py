"""Euclidean entropy / interpolation inequality checks on radial profiles.

The central quantity is the entropy deficit

    deficit(u) = (n/p) ln( K int |grad v|^p ) - int v^p ln(v^p),

of v = u/||u||_p, with K the sharp entropy constant: nonnegative for every
admissible profile and zero exactly on the extremal family.  The module
also exposes the logarithmic Hoelder interpolation gap, the critical
embedding entropy bound obtained by differentiating that interpolation
at q = p, a two-route check of d/dq log ||u||_q at q = p, and a weak
residual for the limiting nonlinear PDE

    Delta_p u + C u^{p-1} = K^{-1} ( u^{p-1} + (p/n) u^{p-1} ln u^p ),

with Delta_p u = -div(|grad u|^{p-2} grad u).

Every integral here is summed block by block over the profile's grid
(profiles._profile_sums, or its blocks for the residual), so no call
allocates a float array the size of the grid, apart from the cumulative
mass and the log-radius that place the residual's test window.  The
deficit, gap, slack and log-norm derivative each make one pass over u as
given: with m = int u^p, G = int |grad u|^p and E = int u^p ln u^p,
v = u/||u||_p has int |grad v|^p = G/m and int v^p ln v^p = E/m - ln m,
and ln ||u||_t = (ln int u^t)/t; deficit_report returns m^{1/p}, G and E
with the deficit.  The weak residual evaluates each bump test function
only on the blocks its support meets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import entropy_best_constant
from .errors import DomainError, Record
from .profiles import (RadialProfile, _add_blocks, _blocks, _node_measure, _profile_sums,
                       bump_basis, plogp, radial_derivative)

__all__ = [
    "DeficitReport",
    "deficit_report",
    "entropy_deficit",
    "holder_interpolation_gap",
    "embedding_entropy_slack",
    "LogNormDerivative",
    "log_norm_derivative",
    "PdeResidualReport",
    "limit_pde_residual",
]

#: bump test functions in the weak residual of the limiting PDE
_PDE_TESTS = 12


def _check_p_range(u: RadialProfile, p: float) -> int:
    n = u.dimension
    if not 1 < p < n:
        raise DomainError(f"require 1 < p < n, got p={p}, n={n}")
    return n


def _log_mass(mass: float) -> float:
    """ln of a profile's mass int u^t dx, which must be positive and finite."""
    if not (mass > 0 and math.isfinite(mass)):
        raise DomainError("profile has zero or non-finite Lp mass")
    return math.log(mass)


@dataclass(frozen=True)
class DeficitReport(Record):
    """The entropy deficit of u and the three integrals of u it is made of.

    lp_norm, grad_energy and entropy equal profiles.lp_norm,
    profiles.grad_energy and profiles.entropy_integral of u bit for bit:
    each is the same blocked sum, taken in the deficit's one pass.
    """

    deficit: float
    lp_norm: float
    grad_energy: float
    entropy: float


def deficit_report(u: RadialProfile, p: float) -> DeficitReport:
    """entropy_deficit of u with ||u||_p, int |grad u|^p and int u^p ln u^p.

    A gradient energy or entropy that leaves the float range (|u'|^p
    overflows node by node on a steep profile) is a DomainError.
    """
    n = _check_p_range(u, p)
    with np.errstate(over="ignore"):
        mass, grad, entropy = _profile_sums(
            u, lambda mw, r, v, dv: (mw * v**p, mw * np.abs(dv) ** p, mw * plogp(v, p)),
            derivative=True)
    ln_m = _log_mass(mass)
    if not (math.isfinite(grad) and math.isfinite(entropy)):
        raise DomainError("the profile's gradient energy or entropy leaves the float range")
    # exactly constant values leave only finite-difference dust in grad,
    # so catch that case by inspection rather than by thresholding
    if grad <= 0 or np.ptp(u.values) == 0:
        raise DomainError("profile has zero gradient energy; deficit undefined")
    deficit = (n / p) * math.log(entropy_best_constant(n, p) * (grad / mass)) - (entropy / mass - ln_m)
    return DeficitReport(deficit=deficit, lp_norm=mass ** (1.0 / p), grad_energy=grad,
                         entropy=entropy)


def entropy_deficit(u: RadialProfile, p: float) -> float:
    """Sharp-constant entropy deficit of u/||u||_p; >= 0 up to quadrature.

    Scaling and dilation invariance of the underlying inequality mean the
    deficit of any positive multiple of an extremal vanishes, whatever its b.
    """
    return deficit_report(u, p).deficit


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
    sums = _profile_sums(u, lambda mw, r, v, dv: (mw * v**p, mw * v**q, mw * v**p_star))
    ln_p, ln_q, ln_ps = (_log_mass(m) / t for m, t in zip(sums, (p, q, p_star)))
    return (ln_q - ln_p) + (1.0 - alpha) * (ln_p - ln_ps)


def embedding_entropy_slack(u: RadialProfile, p: float) -> float:
    """Slack of the critical-norm entropy bound at u/||u||_p; >= 0 up to quadrature.

    For ||v||_p = 1:  int v^p ln(v^p) <= (n/p) ln( (int v^{p*})^{p/p*} ),
    obtained by differentiating the Hoelder interpolation at q = p.
    Returns RHS - LHS.
    """
    n = _check_p_range(u, p)
    p_star = n * p / (n - p)
    mass, mass_star, entropy = _profile_sums(
        u, lambda mw, r, v, dv: (mw * v**p, mw * v**p_star, mw * plogp(v, p)))
    ln_m = _log_mass(mass)
    return n * (_log_mass(mass_star) / p_star - ln_m / p) - (entropy / mass - ln_m)


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
    if not 1 < p < math.inf:
        raise DomainError(f"require a finite p > 1, got {p}")
    if not 0 < dq < p - 1:
        raise DomainError(f"require 0 < dq < p - 1, got dq={dq}")
    p_m = p - dq
    mass_p, mass_m, entropy = _profile_sums(
        u, lambda mw, r, v, dv: (mw * v**p, mw * v**p_m, mw * plogp(v, p)))
    ln_m = _log_mass(mass_p)
    fd = (ln_m / p - _log_mass(mass_m) / p_m) / dq
    exact = (entropy / mass_p - ln_m) / (p * p)
    return LogNormDerivative(fd=fd, exact=exact, err=abs(fd - exact))


@dataclass(frozen=True)
class PdeResidualReport(Record):
    """Weak residual of the limiting PDE over a fixed bump test basis."""

    residual: float
    c_value: float
    c_fitted: bool
    per_test: tuple
    scale: float


def limit_pde_residual(u: RadialProfile, p: float, C="fit") -> PdeResidualReport:
    """Relative weak residual of the limiting PDE at the profile u.

    Tested against _PDE_TESTS smooth compactly supported bumps v_k after one
    integration by parts of the p-Laplacian term:

        r_k = int |u'|^{p-2} u' v_k' dx + C int u^{p-1} v_k
              - K^{-1} int ( u^{p-1} + (p/n) u^{p-1} ln u^p ) v_k .

    C may be a number or "fit", in which case the scalar minimizing the
    l2 norm of (r_1, ..., r_K) is used (the residual is linear in C).
    The returned residual is normalized by the size of the individual
    terms, so values near 1 mean "not remotely a solution".  The bumps
    are evaluated block by block on the slices of profiles._blocked_sums,
    and only where they live: a block that no bump's support meets is
    skipped (no measure, no derivative, no logarithm), and a block that
    some meet evaluates only those.  Every bump vanishes exactly off its
    support, and a zero block adds exactly 0 to the fsum of the blocks, so
    the sums are those of every bump on every block, bit for bit.
    """
    n = _check_p_range(u, p)
    if np.any(u.values <= 0):
        raise DomainError("limit_pde_residual requires a strictly positive profile")
    fitted = isinstance(C, str)
    if fitted and C != "fit":
        raise DomainError(f"C must be a number or 'fit', got {C!r}")
    if not fitted and not math.isfinite(float(C)):
        raise DomainError(f"C must be finite, got {C!r}")
    inv_k = 1.0 / entropy_best_constant(n, p)

    # bumps in log-radius, centered between the 2% and 98% mass quantiles of u^p
    mass = u.cell_measure()
    mass *= u.values**p
    cum = np.cumsum(mass)
    del mass
    if cum[-1] <= 0:
        raise DomainError("profile carries no mass for the test basis")
    cum /= cum[-1]
    log_r = np.log(u.grid)
    lo = float(np.interp(0.02, cum, log_r))
    hi = float(np.interp(0.98, cum, log_r))
    del cum, log_r
    centers = np.linspace(lo, hi, _PDE_TESTS)
    width = 1.6 * (hi - lo) / (_PDE_TESTS - 1)

    # the sums of (grad, mass, rhs) for each bump, block by block as in
    # _profile_sums; a bump adds only on the blocks its support meets
    grid, values = u.grid, u.values
    partials = [np.zeros((_PDE_TESTS, 3))]
    for i, j, a, b in _blocks(len(grid)):
        r = grid[i:j]
        # bump_basis's coordinate x = (ln r - c)/width at the slice's end
        # nodes: x is monotone along the grid, so a bump whose |x| < 1 at no
        # node of the slice lies past one of its ends
        x = (np.log(r[[0, -1]]) - centers[:, None]) / width
        live = np.flatnonzero((x[:, 1] > -1.0) & (x[:, 0] < 1.0))
        if not live.size:
            continue
        v = values[i:j]
        mw = _node_measure(r, n)
        dv = radial_derivative(r, v)
        # each weight is the left factor of its integrands (mw * flux * dv,
        # mw * u_pm1 * v, ...), which keeps the bits of the whole-array products
        u_pm1 = v ** (p - 1.0)
        grad_w = mw * (np.sign(dv) * np.abs(dv) ** (p - 1.0))
        mass_w = mw * u_pm1
        rhs_w = mw * (u_pm1 + (p / n) * (u_pm1 * p * np.log(v)))
        rows = np.array([(grad_w * db, mass_w * bump, rhs_w * bump)
                         for bump, db in bump_basis(np.log(r), centers[live], width, jacobian=r)])
        part = np.zeros((_PDE_TESTS, 3))
        part[live] = np.add.reduce(rows[..., a:b], axis=-1)
        partials.append(part)
    # contiguous copies: np.dot on strided views may sum in another order
    grad_t, mass_t, rhs_t = np.ascontiguousarray(_add_blocks(partials).T)
    rhs_t = -inv_k * rhs_t

    base = grad_t + rhs_t
    if fitted:
        c_val = -float(np.dot(base, mass_t) / np.dot(mass_t, mass_t))
    else:
        c_val = float(C)
    with np.errstate(over="ignore"):
        terms = np.array([grad_t, c_val * mass_t, rhs_t])
    if not np.isfinite(terms).all():
        raise DomainError(f"the weak-form term C int u^(p-1) v at C = {c_val!r} leaves the "
                          f"float range")
    res = base + terms[1]
    # both norms of the vectors times 2^-k, k the binary exponent of the
    # largest term: no square overflows, and a power of two scales exactly,
    # so the ratio and the scale, taken back by 2^k, keep every finite bit
    k = math.frexp(float(np.max(np.abs(terms))))[1]
    scale_vec = np.abs(np.ldexp(terms, -k)).sum(axis=0)
    norm = float(np.linalg.norm(scale_vec))
    if norm <= 0:
        raise DomainError("degenerate test basis: all weak-form terms vanish")
    try:
        scale = math.ldexp(norm, k)
    except OverflowError:
        raise DomainError(f"the norm of the weak-form terms at C = {c_val!r} leaves the "
                          f"float range") from None
    return PdeResidualReport(
        residual=float(np.linalg.norm(np.ldexp(res, -k))) / norm,
        c_value=c_val,
        c_fitted=fitted,
        per_test=tuple(float(x) for x in res),
        scale=scale,
    )
