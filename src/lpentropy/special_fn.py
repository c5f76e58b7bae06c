"""Gamma-family special functions.

Everything downstream (best constants, extremal normalizations, moment
oracles) reduces to log-gamma evaluations, so the accuracy contract here
is deliberately strict: at least 13 significant digits on the positive
real axis.  Values that would overflow in linear scale are assembled in
log space and exponentiated once at the end.  The closed forms are
checked in the test suite against an independent adaptive quadrature
oracle that the library itself does not need.
"""

from __future__ import annotations

import math

from .errors import DomainError

__all__ = [
    "log_gamma",
    "sphere_area",
    "stretched_exp_moment",
]


def log_gamma(x: float) -> float:
    """ln Gamma(x) for x > 0.

    Delegates to the C library's Lanczos/Stirling implementation, which
    delivers ~15 significant digits on the positive axis, comfortably
    above the 13-digit contract every downstream constant inherits.
    """
    if not x > 0:
        raise DomainError(f"log_gamma requires x > 0, got {x}")
    return math.lgamma(x)


def _dimension(n, least: int) -> int:
    """n as an int; DomainError unless it is a whole number >= least (nan and inf are not)."""
    if not (math.isfinite(n) and n >= least and int(n) == n):
        raise DomainError(f"dimension must be an integer >= {least}, got {n}")
    return int(n)


def sphere_area(n: int) -> float:
    """Surface area of the unit (n-1)-sphere in R^n: 2 pi^{n/2} / Gamma(n/2).

    sphere_area(1) = 2 (two points), sphere_area(2) = 2 pi,
    sphere_area(3) = 4 pi.
    """
    n = _dimension(n, 1)
    return math.exp(math.log(2.0) + 0.5 * n * math.log(math.pi) - log_gamma(0.5 * n))


def stretched_exp_moment(m: float, s: float, c: float) -> float:
    """Closed form of the moment integral  int_0^inf r^m exp(-c r^s) dr.

    Substituting t = c r^s reduces it to Gamma((m+1)/s) / (s c^{(m+1)/s}).
    Evaluated in log space so large m or extreme c cannot overflow the
    intermediate Gamma value.
    """
    if not m > -1:
        raise DomainError(f"moment exponent must satisfy m > -1, got {m}")
    if not (s > 0 and c > 0):
        raise DomainError(f"stretched_exp_moment requires s > 0 and c > 0, got s={s}, c={c}")
    k = (m + 1.0) / s
    return math.exp(log_gamma(k) - math.log(s) - k * math.log(c))

