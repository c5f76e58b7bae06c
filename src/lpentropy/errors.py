"""Exception types shared across the package.

The CLI maps these onto process exit codes, so library code should raise
the most specific type that applies rather than bare ValueError.
"""


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative or adaptive procedure failed to reach its target."""


class AccuracyNotMet(ConvergenceError):
    """Adaptive quadrature exhausted its subdivision budget."""


class OracleDisagreement(ConvergenceError):
    """Two independent routes to the same quantity disagree beyond tolerance."""
