"""Exception types shared across the package.

Each CLI exit code is one class: every bad-input error is a
ParameterError (exit 2), the others below deriving from it only to name
the kind of problem; a SimulationError is exit 3.
"""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class DomainError(ParameterError):
    """A mathematically undefined request (nonexistent moment, n <= n0, ...)."""


class NoContractionError(ParameterError):
    """The contraction factor is >= 1, so no geometric certificate exists."""


class StateError(ParameterError):
    """A chain state violates the family's state constraints."""


class IngestionError(ParameterError):
    """A dataset could not be parsed; the message names the offending cell."""


class SimulationError(RuntimeError):
    """A simulated chain left the range the estimator can represent
    (non-finite states, or histogram cells beyond int64)."""
