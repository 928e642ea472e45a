"""Exception types shared across the package.

The CLI maps these onto exit codes: parameter / domain / ingestion
problems exit 2, simulation failures exit 3.
"""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class DomainError(ValueError):
    """A mathematically undefined request (nonexistent moment, n <= n0, ...)."""


class NoContractionError(ParameterError):
    """The contraction factor is >= 1, so no geometric certificate exists."""


class StateError(ValueError):
    """A chain state violates the family's state constraints."""


class IngestionError(ValueError):
    """A dataset could not be parsed; the message names the offending cell."""


class SimulationError(RuntimeError):
    """A simulated chain left the range the estimator can represent
    (non-finite states, or histogram cells beyond int64)."""
