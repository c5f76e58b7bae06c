"""Numerical toolkit for sharp Lp entropy and Gagliardo-Nirenberg inequalities.

The package evaluates the closed-form best constants, checks saturation
by the extremal family, estimates interpolation constants variationally,
expands concentrating bubbles on model manifolds (round sphere, flat
torus), minimizes the penalized quotient functional on those manifolds,
and evaluates the semigroup integrals behind hypercontractivity bounds.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyNotMet,
    ConvergenceError,
    DomainError,
    OracleDisagreement,
)

__all__ = [
    "__version__",
    "AccuracyNotMet",
    "ConvergenceError",
    "DomainError",
    "OracleDisagreement",
]
