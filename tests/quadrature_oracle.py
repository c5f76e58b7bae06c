"""Adaptive semi-infinite quadrature: the independent oracle for the
closed-form moments of lpentropy.special_fn.

It lives with the tests because only the tests use it: the library's
integrals are all closed forms or fixed-grid rules, and this adaptive
route is what they are checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from scipy.integrate import quad

from lpentropy.errors import AccuracyNotMet, DomainError


@dataclass(frozen=True)
class Accuracy:
    """Target accuracy for adaptive quadrature.

    rel_tol / abs_tol mirror the usual epsrel/epsabs pair; max_subdivisions
    caps the interval count of the adaptive subdivision.
    """

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_subdivisions: int = 200

    def __post_init__(self):
        if not (self.rel_tol > 0 and self.abs_tol > 0):
            raise DomainError("Accuracy tolerances must be positive")
        if self.max_subdivisions < 1:
            raise DomainError("max_subdivisions must be a positive integer")


def semi_infinite_integral(f: Callable[[float], float], accuracy: Accuracy = Accuracy()) -> float:
    """Adaptive quadrature of f over (0, inf).

    The half line is mapped to (0, 1) by r = t/(1-t) (Jacobian 1/(1-t)^2)
    and the transformed integrand is fed to an adaptive Gauss-Kronrod
    rule.  Raises AccuracyNotMet if the error estimate still exceeds the
    Accuracy contract after max_subdivisions intervals.
    """

    def g(t: float) -> float:
        om = 1.0 - t
        r = t / om
        return f(r) / (om * om)

    val, err = quad(
        g,
        0.0,
        1.0,
        epsabs=accuracy.abs_tol,
        epsrel=accuracy.rel_tol,
        limit=accuracy.max_subdivisions,
    )
    if err > max(accuracy.abs_tol, accuracy.rel_tol * abs(val)) * 10.0:
        raise AccuracyNotMet(
            f"semi-infinite quadrature error estimate {err:.3e} exceeds target "
            f"(value {val:.6e}, rel_tol {accuracy.rel_tol}, abs_tol {accuracy.abs_tol})"
        )
    return val
