"""Variational lower estimates of sharp Gagliardo-Nirenberg constants.

The interpolation inequality is normalized so that

    ||u||_r^{p/theta}  <=  A(n,p,q,r) ||grad u||_p^p ||u||_q^{p(1-theta)/theta},

with theta the usual scaling exponent.  In this normalization the constant
at the Sobolev endpoint r = p* (theta = 1) is the sharp Sobolev bound, and
along r = p, q -> p- it tends to the sharp entropy constant.  The estimator
maximizes the quotient

    Q(u) = ||u||_r^{p/theta} / ( ||grad u||_p^p ||u||_q^{p(1-theta)/theta} )

over two closed-form trial families (stretched exponentials and rational
bumps, both reduced to gamma/beta moments) and then runs a projected
gradient ascent on a discretized radial profile seeded by the best family
member, by the package's one Armijo driver (profiles._projected_descent)
applied to -ln Q.  Every reported value is a certified lower bound up to
quadrature error; none can exceed the sharp constant by more than that
error.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .constants import InequalityParams, derived_exponents, entropy_best_constant
from .errors import DomainError
from .profiles import RadialProfile, _projected_descent, derivative_matrix, lp_norm
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
    p = params.p
    norm_r = lp_norm(u, params.r)
    norm_q = lp_norm(u, params.q)
    mw = u.cell_measure()
    grad_p = float(np.sum(mw * np.abs(u.derivative()) ** p))
    if grad_p <= 0:
        raise DomainError("profile has zero gradient energy; quotient undefined")
    if norm_r <= 0 or norm_q <= 0:
        raise DomainError("profile has zero mass; quotient undefined")
    ln_q_val = (
        (p / theta) * math.log(norm_r)
        - math.log(grad_p)
        - (p * (1.0 - theta) / theta) * math.log(norm_q)
    )
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
    return (
        (p / theta) * ln_norm(params.r)
        - ln_grad
        - (p * (1.0 - theta) / theta) * ln_norm(params.q)
    )


def _ln_beta(a: float, b: float) -> float:
    return log_gamma(a) + log_gamma(b) - log_gamma(a + b)


def _carries_q_norm(theta: float) -> bool:
    # at the Sobolev endpoint r = p* (theta = 1, up to the rounding of the
    # exponent formula) the q-norm enters the quotient with exponent 0
    return abs(theta - 1.0) > 1e-9


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
    value = (p / theta) * ln_norm(params.r) - ln_grad
    if _carries_q_norm(theta):
        value -= (p * (1.0 - theta) / theta) * ln_norm(params.q)
    return value


def _scan_stretched(params: InequalityParams, theta: float) -> tuple:
    grid = np.linspace(1.0, 4.0, 61)
    vals = [_ln_quotient_stretched(params, theta, s) for s in grid]
    s0 = float(grid[int(np.argmax(vals))])
    res = optimize.minimize_scalar(
        lambda s: -_ln_quotient_stretched(params, theta, s),
        bounds=(max(1.0, s0 - 0.2), min(4.0, s0 + 0.2)),
        method="bounded",
        options={"xatol": 1e-8},
    )
    s_best = float(res.x)
    best = _ln_quotient_stretched(params, theta, s_best)
    if best < max(vals):
        s_best, best = s0, max(vals)
    return best, {"s": s_best}


def _scan_rational(params: InequalityParams, theta: float) -> tuple:
    best = -math.inf
    best_sk = (2.0, 1.0)
    for s in np.linspace(1.0, 4.0, 13):
        k_lo = _rational_k_floor(params, theta, s)
        for k in np.geomspace(k_lo * 1.05 + 0.02, (k_lo + 1.0) * 25.0, 17):
            try:
                v = _ln_quotient_rational(params, theta, s, k)
            except DomainError:
                continue
            if v > best:
                best, best_sk = v, (float(s), float(k))

    def negated(x) -> float:
        s, k = float(x[0]), float(x[1])
        if not 0.5 <= s <= 6.0:
            return 1e9
        try:
            return -_ln_quotient_rational(params, theta, s, k)
        except DomainError:
            return 1e9

    res = optimize.minimize(
        negated, np.array(best_sk), method="Nelder-Mead",
        options={"xatol": 1e-9, "fatol": 1e-12, "maxiter": 400},
    )
    if -res.fun > best and math.isfinite(res.fun):
        best = float(-res.fun)
        best_sk = (float(res.x[0]), float(res.x[1]))
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
    # ascent on ln Q run as descent on -ln Q; negation is exact, so the
    # iterates are those of an ascent written out directly
    p, q, r = params.p, params.q, params.r
    mw = u0.cell_measure()
    mat = derivative_matrix(u0.grid)
    mat_t = mat.T

    def neg_ln_q(vals: np.ndarray):
        du = mat @ vals
        grad_p = float(np.sum(mw * np.abs(du) ** p))
        mr = float(np.sum(mw * vals**r))
        mq = float(np.sum(mw * vals**q))
        if grad_p <= 0 or mr <= 0 or mq <= 0:
            return None, None
        val = (
            (p / theta) * math.log(mr) / r
            - math.log(grad_p)
            - (p * (1.0 - theta) / theta) * math.log(mq) / q
        )
        return -val, (du, grad_p, mr, mq)

    def neg_gradient(vals: np.ndarray, cache) -> np.ndarray:
        du, grad_p, mr, mq = cache
        flux = mw * np.sign(du) * np.abs(du) ** (p - 1.0)
        return -(
            (p / theta) * (mw * vals ** (r - 1.0)) / mr
            - p * (mat_t @ flux) / grad_p
            - (p * (1.0 - theta) / theta) * (mw * vals ** (q - 1.0)) / mq
        )

    _, neg_val, iters = _projected_descent(
        neg_ln_q, neg_gradient, u0.values / lp_norm(u0, q), mw, max_iters, armijo=1e-4
    )
    return math.exp(-neg_val), iters


@dataclass(frozen=True)
class GNEstimate:
    """Best quotient found; a lower bound for the sharp constant."""

    value: float
    best_family: str
    family_values: dict
    best_params: dict
    ascent_iterations: int
    ascent_gain: float
    theta: float
    params: InequalityParams

    def as_dict(self) -> dict:
        return {
            "value": self.value,
            "best_family": self.best_family,
            "family_values": dict(self.family_values),
            "best_params": dict(self.best_params),
            "ascent_iterations": self.ascent_iterations,
            "ascent_gain": self.ascent_gain,
            "theta": self.theta,
            "n": self.params.n,
            "p": self.params.p,
            "q": self.params.q,
            "r": self.params.r,
        }


def estimate_gn_constant(
    params: InequalityParams,
    n_nodes: int = 4000,
    ascent_iters: int = 250,
) -> GNEstimate:
    """Maximize the interpolation quotient over trial profiles.

    Runs the two closed-form family scans, then a discretized gradient
    ascent seeded by the winner.  The ascent evaluates the quotient by
    quadrature, so its value carries O(n_nodes^-2) error; the family
    values are exact up to floating point.
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

    ascent_val, iters = _ascent(
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
        theta=theta,
        params=params,
    )


def limit_scan(n: int, p: float, q_values, n_nodes: int = 4000, ascent_iters: int = 250):
    """Estimates along r = p, q -> p-, against the entropy-constant ceiling.

    Returns one row per q with the estimate, the ceiling, and the relative
    gap; the gap should shrink monotonically as q increases toward p.
    """
    ceiling = entropy_best_constant(n, p)
    rows = []
    for q in q_values:
        if not q < p:
            raise DomainError(f"limit scan needs q < p, got q={q}, p={p}")
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
