"""Best constants and exponent bookkeeping for Lp entropy / GN inequalities.

The two closed-form constants:

  entropy_best_constant(n, p):
      (p/n) ((p-1)/e)^{p-1} pi^{-p/2} [Gamma(n/2+1) / Gamma(n(p-1)/p+1)]^{p/n}

  sobolev_bound_constant(n, p):
      (1/n) ((p-1)/(n-p))^{p-1} pi^{-p/2}
          [Gamma(n) Gamma(n/2+1) / (Gamma(n/p) Gamma(n(p-1)/p+1))]^{p/n}

Both are assembled in log space from log_gamma.  The interpolation
exponent theta for the two-exponent family (q, r) is

  theta = n p (r - q) / (r (q (p - n) + n p)),

which degenerates to theta = 0 at r = q (flagged, not an error) and
reduces at r = p to theta_q = n(p-q) / (np + pq - nq).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError
from .special_fn import _dimension, log_gamma

__all__ = [
    "InequalityParams",
    "DerivedExponents",
    "entropy_best_constant",
    "sobolev_bound_constant",
    "derived_exponents",
    "dpd_parameters",
]


def _check_np(n: int, p: float) -> None:
    _dimension(n, 2)
    if not 1 < p < math.inf:
        raise DomainError(f"exponent must satisfy 1 < p < inf, got {p}")


def _exp_in_range(name: str, log_x: float) -> float:
    """exp(log_x); DomainError where it leaves the float range (overflows,
    or underflows to 0)."""
    try:
        x = math.exp(log_x)
    except OverflowError:
        x = math.inf
    if not 0 < x < math.inf:
        raise DomainError(f"{name} = exp({log_x:.6g}) leaves the float range")
    return x


@dataclass(frozen=True)
class InequalityParams:
    """Exponent tuple (n, p, q, r) for the two-exponent interpolation family.

    Validity: integer n >= 2, 1 < p < n, 1 <= q <= r <= p* = np/(n-p).
    q = r is admitted only as the degenerate endpoint (theta = 0); every
    genuinely two-exponent operation additionally requires q < r.
    """

    n: int
    p: float
    q: float
    r: float

    def __post_init__(self):
        _check_np(self.n, self.p)
        if not self.p < self.n:
            raise DomainError(f"require p < n, got p={self.p}, n={self.n}")
        ps = self.n * self.p / (self.n - self.p)
        if not 1 <= self.q:
            raise DomainError(f"require q >= 1, got q={self.q}")
        if not self.q <= self.r:
            raise DomainError(f"require q <= r, got q={self.q}, r={self.r}")
        if self.r > ps * (1 + 1e-12):
            raise DomainError(
                f"require r <= p* = np/(n-p) = {ps:.6g}, got r={self.r}"
            )

    @property
    def p_star(self) -> float:
        return self.n * self.p / (self.n - self.p)


@dataclass(frozen=True)
class DerivedExponents:
    """theta / alpha / p* derived from an InequalityParams tuple.

    degenerate is True exactly when r = q, where theta = 0 and the
    interpolation inequality carries no gradient term.
    """

    theta: float
    alpha: float
    p_star: float
    degenerate: bool = False


def entropy_best_constant(n: int, p: float) -> float:
    """Sharp constant of the Euclidean Lp entropy inequality.

    For ||u||_p = 1:  int |u|^p ln|u|^p dx <= (n/p) ln( K int |grad u|^p dx )
    holds with K = entropy_best_constant(n, p) and is saturated by the
    radial profiles a exp(-b |x|^{p/(p-1)}).  At p = 2 the value collapses
    to 2/(n pi e).
    """
    _check_np(n, p)
    log_k = (
        math.log(p / n)
        + (p - 1.0) * (math.log(p - 1.0) - 1.0)
        - 0.5 * p * math.log(math.pi)
        + (p / n) * (log_gamma(0.5 * n + 1.0) - log_gamma(n * (p - 1.0) / p + 1.0))
    )
    return _exp_in_range("the entropy constant", log_k)


def sobolev_bound_constant(n: int, p: float) -> float:
    """Closed-form upper bound for the constant of the endpoint r = p* family.

    Requires 1 < p < n (the Sobolev exponent p* = np/(n-p) must be finite).
    """
    _check_np(n, p)
    if not p < n:
        raise DomainError(f"sobolev_bound_constant requires p < n, got p={p}, n={n}")
    log_k = (
        -math.log(n)
        + (p - 1.0) * math.log((p - 1.0) / (n - p))
        - 0.5 * p * math.log(math.pi)
        + (p / n)
        * (
            log_gamma(float(n))
            + log_gamma(0.5 * n + 1.0)
            - log_gamma(n / p)
            - log_gamma(n * (p - 1.0) / p + 1.0)
        )
    )
    return _exp_in_range("the Sobolev bound constant", log_k)


def derived_exponents(params: InequalityParams) -> DerivedExponents:
    """Interpolation exponent theta and the Hoelder exponent alpha.

    theta = np(r-q) / (r (q(p-n) + np)) lies in (0, 1] for q < r <= p*;
    r = q returns exactly theta = 0 with the degenerate flag set.
    alpha = (np - nq + pq) / (pq) is the weight of ||u||_p in the
    three-norm interpolation ||u||_q <= ||u||_p^alpha ||u||_{p*}^{1-alpha}
    (alpha is in [0, 1] when q lies between p and p*).
    """
    n, p, q, r = params.n, params.p, params.q, params.r
    alpha = (n * p - n * q + p * q) / (p * q)
    if r == q:
        return DerivedExponents(theta=0.0, alpha=alpha, p_star=params.p_star, degenerate=True)
    theta = n * p * (r - q) / (r * (q * (p - n) + n * p))
    return DerivedExponents(theta=theta, alpha=alpha, p_star=params.p_star, degenerate=False)


def dpd_parameters(n: int, p: float, s: float) -> InequalityParams:
    """One-parameter exponent family q = s, r = p(s-1)/(p-1) with s > p.

    Along this family the two-exponent inequality interpolates between the
    entropy inequality (s -> p) and the Sobolev endpoint.
    """
    _check_np(n, p)
    if not s > p:
        raise DomainError(f"dpd_parameters requires s > p, got s={s}, p={p}")
    return InequalityParams(n=n, p=p, q=s, r=p * (s - 1.0) / (p - 1.0))
