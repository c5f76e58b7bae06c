"""Exception types and the result-record base shared across the package.

The CLI maps the exceptions onto process exit codes, so library code
should raise the most specific type that applies rather than bare
ValueError.
"""


class Record:
    """Base of the frozen result dataclasses whose JSON form is their fields."""

    def as_dict(self) -> dict:
        # imported here so that --help and --version load no more modules
        import dataclasses

        return dataclasses.asdict(self)


class DomainError(ValueError):
    """A parameter lies outside the mathematical domain of an operation."""


class ConvergenceError(RuntimeError):
    """An iterative or adaptive procedure failed to reach its target."""


class AccuracyNotMet(ConvergenceError):
    """A quadrature's error estimate exceeds its tolerance; estimates holds
    its last error estimates, or None if it made none."""

    def __init__(self, message: str, estimates=None):
        super().__init__(message)
        self.estimates = estimates


class OracleDisagreement(ConvergenceError):
    """Two independent routes to the same quantity disagree beyond tolerance."""
