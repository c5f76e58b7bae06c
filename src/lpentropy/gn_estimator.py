"""Variational lower estimates of sharp Gagliardo-Nirenberg constants.

The interpolation inequality is normalized so that

    ||u||_r^{p/theta}  <=  A(n,p,q,r) ||grad u||_p^p ||u||_q^{p(1-theta)/theta},

with theta the usual scaling exponent.  In this normalization the constant
at the Sobolev endpoint r = p* (theta = 1) is the sharp Sobolev bound, and
along r = p, q -> p- it tends to the sharp entropy constant.  The estimator
maximizes the quotient

    Q(u) = ||u||_r^{p/theta} / ( ||grad u||_p^p ||u||_q^{p(1-theta)/theta} )

over two closed-form trial families (stretched exponentials exp(-r^s) and
rational bumps (1 + r^s)^{-k}, both reduced to gamma/beta moments) and then
runs a projected gradient ascent on a discretized radial profile seeded by
the best family member: the one Armijo driver (profiles._projected_descent)
on -ln Q as the discrete functional, objective and adjoint gradient, that
the manifold minimizer runs too (profiles._discrete_functional).  Every
reported value is a certified lower bound up to quadrature error; none can
exceed the sharp constant by more than that error.

Each family scan refines the best point of its grid by a derivative-free
search: a bounded Brent search over s for the stretched family, a
Nelder-Mead simplex over (s, ln k) for the rational one.  Both are ports
of scipy.optimize routines (_searches) that evaluate the same points as
scipy bit for bit, so the estimator, and with it gn-estimate and
gn-limit, runs on numpy alone.

The family values are the exact quotients of the reported members to 1e-11
relative (checked against 40-digit beta moments for k up to 1e9): the beta
moments take ln Gamma(b) - ln Gamma(a + b) from Stirling's series once b is
large, so nothing cancels as k grows.  As k -> infinity the rational bump,
dilated by k^{1/s}, tends to exp(-r^s), so the rational family's quotient
tends to the stretched one at the same s.  On r <= p (every path tested)
the rational search runs toward that limit; it stops once k passes
1e8 (k_floor(s) + 1), where the member is the limit to about 1/k and the
supremum is the stretched value the stretched scan already maximized.
Interior optima, such as the Del Pino-Dolbeault extremals and the Sobolev
endpoint (both r > p), lie far inside that range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._searches import bounded_brent, nelder_mead
from .constants import InequalityParams, derived_exponents, entropy_best_constant
from .errors import DomainError, Record
from .profiles import (RadialProfile, _discrete_functional, _profile_sums, _projected_descent,
                       lp_norm)
from .special_fn import log_gamma, sphere_area, stretched_exp_moment

__all__ = [
    "GNQuotientReport",
    "gn_quotient",
    "GNEstimate",
    "estimate_gn_constant",
    "limit_scan",
]


def _theta_or_raise(params: InequalityParams) -> float:
    exps = derived_exponents(params)
    if exps.degenerate or exps.theta <= 0:
        raise DomainError(
            f"quotient undefined for r == q (theta = {exps.theta}); "
            "use the entropy deficit for the limiting inequality"
        )
    return exps.theta


def _carries_q_norm(theta: float) -> bool:
    # at the Sobolev endpoint r = p* (theta = 1, up to the rounding of the
    # exponent formula) the q-norm enters the quotient with exponent 0
    return abs(theta - 1.0) > 1e-9


def _ln_quotient(params: InequalityParams, theta: float, ln_norm_r: float, ln_grad: float,
                 ln_norm_q) -> float:
    """ln Q from ln ||u||_r, ln ||grad u||_p^p and ln ||u||_q.

    ln_norm_q is called only where the q-norm enters (theta != 1): at the
    Sobolev endpoint it may be infinite or undefined.
    """
    p = params.p
    value = (p / theta) * ln_norm_r - ln_grad
    if _carries_q_norm(theta):
        value -= (p * (1.0 - theta) / theta) * ln_norm_q()
    return value


@dataclass(frozen=True)
class GNQuotientReport:
    quotient: float
    norm_r: float
    grad_norm: float
    norm_q: float
    theta: float
    params: InequalityParams


def gn_quotient(u: RadialProfile, params: InequalityParams) -> GNQuotientReport:
    """Scale- and dilation-invariant interpolation quotient of a profile."""
    if u.dimension != params.n:
        raise DomainError(
            f"profile dimension {u.dimension} does not match params n={params.n}"
        )
    theta = _theta_or_raise(params)
    p, q, r = params.p, params.q, params.r
    mass_r, mass_q, grad_p = _profile_sums(
        u.grid, u.values, u.dimension,
        lambda mw, x, v, dv: (mw * v**r, mw * v**q, mw * np.abs(dv) ** p), derivative=True
    )
    norm_r = mass_r ** (1.0 / r)
    norm_q = mass_q ** (1.0 / q)
    if grad_p <= 0:
        raise DomainError("profile has zero gradient energy; quotient undefined")
    if norm_r <= 0 or norm_q <= 0:
        raise DomainError("profile has zero mass; quotient undefined")
    ln_q_val = _ln_quotient(params, theta, math.log(norm_r), math.log(grad_p),
                            lambda: math.log(norm_q))
    return GNQuotientReport(
        quotient=math.exp(ln_q_val),
        norm_r=norm_r,
        grad_norm=grad_p ** (1.0 / p),
        norm_q=norm_q,
        theta=theta,
        params=params,
    )


# ---------------------------------------------------------------------------
# closed-form trial families


def _ln_quotient_stretched(params: InequalityParams, theta: float, s: float) -> float:
    # u(r) = exp(-r^s); all norms reduce to gamma-function moments.
    n, p = params.n, params.p
    ln_w = math.log(sphere_area(n))

    def ln_norm(t: float) -> float:
        return (ln_w + math.log(stretched_exp_moment(n - 1, s, t))) / t

    ln_grad = (
        ln_w
        + p * math.log(s)
        + math.log(stretched_exp_moment(n - 1 + (s - 1.0) * p, s, p))
    )
    return _ln_quotient(params, theta, ln_norm(params.r), ln_grad, lambda: ln_norm(params.q))


#: from this second argument on, ln B(a, b) takes ln Gamma(b) - ln Gamma(a + b)
#: from Stirling's series, whose first omitted term is about 1e-16 there
_STIRLING_FROM = 16.0
#: B_2j / (2j (2j - 1)), the coefficients of x^{1-2j} in Stirling's series
_STIRLING = (1.0 / 12.0, -1.0 / 360.0, 1.0 / 1260.0, -1.0 / 1680.0, 1.0 / 1188.0)


def _ln_beta(a: float, b: float) -> float:
    # Past _STIRLING_FROM, ln Gamma(b) - ln Gamma(d) with d = a + b is
    # -a ln d + (b - 1/2) log1p(-a/d) + a plus the difference of the series
    # tails: no term grows with b, where two lgamma values of size b ln b
    # would cancel to a few units and lose their digits
    if b < _STIRLING_FROM:
        return log_gamma(a) + log_gamma(b) - log_gamma(a + b)
    d = a + b
    ib2, id2 = 1.0 / (b * b), 1.0 / (d * d)
    tail_b = tail_d = 0.0
    for c in reversed(_STIRLING):  # Horner's rule in 1/x^2
        tail_b, tail_d = c + ib2 * tail_b, c + id2 * tail_d
    return (log_gamma(a) - a * math.log(d) + (b - 0.5) * math.log1p(-a / d) + a
            + tail_b / b - tail_d / d)


def _rational_k_floor(params: InequalityParams, theta: float, s: float) -> float:
    # decay needed for the integrals of u = (1+r^s)^{-k} in the quotient to converge
    n, p = params.n, params.p
    floor = max(n / (s * params.r), (n + (s - 1.0) * p) / (s * p) - 1.0)
    if _carries_q_norm(theta):
        floor = max(floor, n / (s * params.q))
    return floor


def _ln_quotient_rational(params: InequalityParams, theta: float, s: float, k: float) -> float:
    # u(r) = (1 + r^s)^{-k}; all norms reduce to beta-function moments.
    n, p = params.n, params.p
    if s <= 0 or k <= _rational_k_floor(params, theta, s):
        raise DomainError("rational trial profile decays too slowly to be admissible")
    ln_w = math.log(sphere_area(n))

    def ln_moment(m: float, decay: float) -> float:
        a = (m + 1.0) / s
        return _ln_beta(a, decay - a) - math.log(s)

    def ln_norm(t: float) -> float:
        return (ln_w + ln_moment(n - 1.0, k * t)) / t

    ln_grad = (
        ln_w
        + p * math.log(k * s)
        + ln_moment(n - 1.0 + (s - 1.0) * p, (k + 1.0) * p)
    )
    return _ln_quotient(params, theta, ln_norm(params.r), ln_grad, lambda: ln_norm(params.q))


def _scan_stretched(params: InequalityParams, theta: float) -> tuple:
    grid = np.linspace(1.0, 4.0, 61)
    vals = [_ln_quotient_stretched(params, theta, s) for s in grid]
    s0 = float(grid[int(np.argmax(vals))])
    s_best = bounded_brent(lambda s: -_ln_quotient_stretched(params, theta, s),
                           max(1.0, s0 - 0.2), min(4.0, s0 + 0.2))
    best = _ln_quotient_stretched(params, theta, s_best)
    if best < max(vals):
        s_best, best = s0, max(vals)
    return best, {"s": s_best}


#: the rational search stops once k passes _K_CAP (k_floor(s) + 1): dilated by
#: k^{1/s}, the profile (1 + r^s)^{-k} is then exp(-r^s) to O(1/k)
_K_CAP = 1e8


class _StretchedLimit(Exception):
    """The rational search has reached the family's stretched limit."""


def _scan_rational(params: InequalityParams, theta: float) -> tuple:
    best, best_sk = -math.inf, (2.0, 1.0)

    def value(s: float, k: float) -> float:
        nonlocal best, best_sk
        try:
            v = _ln_quotient_rational(params, theta, s, k)
        except DomainError:
            return -math.inf
        if v > best:
            best, best_sk = v, (s, k)
        return v

    for s in np.linspace(1.0, 4.0, 13):
        k_lo = _rational_k_floor(params, theta, s)
        for k in np.geomspace(k_lo * 1.05 + 0.02, (k_lo + 1.0) * 25.0, 17):
            value(float(s), float(k))

    def negated(x) -> float:
        # x = (s, ln k); past the cap the supremum is the stretched limit,
        # which _scan_stretched maximizes over s
        s, k = float(x[0]), math.exp(x[1])
        if not 0.5 <= s <= 6.0:
            return 1e9
        if k > _K_CAP * (_rational_k_floor(params, theta, s) + 1.0):
            raise _StretchedLimit
        v = value(s, k)
        return -v if math.isfinite(v) else 1e9

    try:
        nelder_mead(negated, np.array([best_sk[0], math.log(best_sk[1])]))
    except _StretchedLimit:
        pass
    return best, {"s": best_sk[0], "k": best_sk[1]}


# ---------------------------------------------------------------------------
# discretized ascent


def _seed_profile(params: InequalityParams, family: str, info: dict, n_nodes: int) -> RadialProfile:
    n = params.n
    if family == "stretched_exp":
        s = info["s"]
        r_max = (37.0 + 2.0 * n) ** (1.0 / s)
        grid = np.geomspace(r_max * 1e-7, r_max, n_nodes)
        vals = np.exp(-(grid**s))
    else:
        s, k = info["s"], info["k"]
        # expand until the r-norm integrand has decayed far below its peak
        r_max = 1.0
        peak = -math.inf
        while r_max < 1e12:
            ln_i = (n - 1) * math.log(r_max) - k * params.r * math.log1p(r_max**s)
            peak = max(peak, ln_i)
            if ln_i < peak - 41.0:
                break
            r_max *= 1.3
        grid = np.geomspace(r_max * 1e-7, r_max, n_nodes)
        vals = (1.0 + grid**s) ** (-k)
    return RadialProfile(grid=grid, values=vals, dimension=n)


def _ascent(u0: RadialProfile, params: InequalityParams, theta: float, max_iters: int):
    # ascent on ln Q run as descent on -ln Q = ln int |u'|^p - (p/(theta r)) ln int u^r
    # + (p(1-theta)/(theta q)) ln int u^q, the package's discrete functional at C = 0
    p, q, r = params.p, params.q, params.r
    mw = u0.cell_measure()
    objective, gradient, _ = _discrete_functional(
        u0.grid, mw, p, 0.0, ((r, -p / (theta * r)), (q, p * (1.0 - theta) / (theta * q))))
    _, neg_val, iters, reason = _projected_descent(objective, gradient, u0.values / lp_norm(u0, q),
                                                   mw, max_iters, armijo=1e-4)
    return math.exp(-neg_val), iters, reason


@dataclass(frozen=True)
class GNEstimate(Record):
    """Best quotient found; a lower bound for the sharp constant.

    ascent_stop_reason is the descent driver's stop reason for the ascent
    (see profiles._projected_descent); "max_iters" means it used its cap.
    """

    value: float
    best_family: str
    family_values: dict
    best_params: dict
    ascent_iterations: int
    ascent_gain: float
    ascent_stop_reason: str
    theta: float
    n: int
    p: float
    q: float
    r: float


def estimate_gn_constant(
    params: InequalityParams,
    n_nodes: int = 4000,
    ascent_iters: int = 250,
) -> GNEstimate:
    """Maximize the interpolation quotient over trial profiles.

    Runs the two closed-form family scans, then a discretized gradient
    ascent seeded by the winner.  The ascent evaluates the quotient by
    quadrature, so its value carries O(n_nodes^-2) error; each family
    value is the exact quotient of its best member to 1e-11 relative.
    best_params holds that member's s and, for the rational family, its
    decay k.  Where the rational search stopped at its cap (r <= p), k is
    that of the best member evaluated before the cap, of order 1e7 to 1e8:
    the family is then its stretched limit, whose value the stretched
    family reports, and the rational value lies at or below it.
    """
    theta = _theta_or_raise(params)
    v_str, info_str = _scan_stretched(params, theta)
    v_rat, info_rat = _scan_rational(params, theta)
    family_values = {
        "stretched_exp": math.exp(v_str),
        "rational": math.exp(v_rat),
    }
    if v_str >= v_rat:
        seed_name, seed_info = "stretched_exp", info_str
    else:
        seed_name, seed_info = "rational", info_rat

    ascent_val, iters, reason = _ascent(
        _seed_profile(params, seed_name, seed_info, n_nodes), params, theta, ascent_iters
    )
    family_values["ascent"] = ascent_val
    gain = ascent_val - family_values[seed_name]

    best_family = max(family_values, key=family_values.get)
    best_params = dict(
        {"stretched_exp": info_str, "rational": info_rat, "ascent": seed_info}[best_family]
    )
    return GNEstimate(
        value=family_values[best_family],
        best_family=best_family,
        family_values=family_values,
        best_params=best_params,
        ascent_iterations=iters,
        ascent_gain=gain,
        ascent_stop_reason=reason,
        theta=theta,
        n=params.n,
        p=params.p,
        q=params.q,
        r=params.r,
    )


def limit_scan(n: int, p: float, q_values, n_nodes: int = 4000, ascent_iters: int = 250):
    """Estimates along r = p, q -> p-, against the entropy-constant ceiling.

    Returns one row per q with the estimate, the ceiling, and the relative
    gap; the gap should shrink monotonically as q increases toward p.
    """
    ceiling = entropy_best_constant(n, p)
    q_values = list(q_values)
    for q in q_values:
        if not q < p:
            raise DomainError(f"limit scan needs q < p, got q={q}, p={p}")
    rows = []
    for q in q_values:
        est = estimate_gn_constant(
            InequalityParams(n=n, p=p, q=float(q), r=p),
            n_nodes=n_nodes,
            ascent_iters=ascent_iters,
        )
        rows.append(
            {
                "q": float(q),
                "estimate": est.value,
                "ceiling": ceiling,
                "rel_gap": (ceiling - est.value) / ceiling,
                "best_family": est.best_family,
            }
        )
    return tuple(rows)
