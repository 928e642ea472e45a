"""Analytic total-variation convergence bounds for iterated random
functions, with Monte-Carlo validation of every certificate.

Submodules
----------
stochastics
    Innovation distributions (shape-rate gamma conventions) and
    reproducible random streams.
models
    The chain families and their shared-noise coupled step.
bounds
    Certificate construction: (C, D, n0, gap) tuples evaluating to
    C * D^(n-n0-1) * gap, with the matrix checks of the vector bound.
tvlab
    Histogram TV estimation, simulated TV curves, shifted-density
    integrals.
data
    Dataset ingestion and Gibbs sufficient statistics (embedded tree
    girth sample included).
cli
    Batch front door: ``tvbounds certificate|iters|curve|dataset-stats|repro``.
"""

from . import bounds, data, models, stochastics, tvlab
from .bounds import (
    BoundCertificate,
    BoundValue,
    DriftSpec,
    bound_eval,
    iterations_to_epsilon,
)
from .errors import (
    DomainError,
    IngestionError,
    NoContractionError,
    ParameterError,
    PrecisionError,
    SimulationError,
    StateError,
)
from .stochastics import NoiseStream

__all__ = [
    "bounds",
    "data",
    "models",
    "stochastics",
    "tvlab",
    "BoundCertificate",
    "BoundValue",
    "DriftSpec",
    "bound_eval",
    "iterations_to_epsilon",
    "NoiseStream",
    "ParameterError",
    "DomainError",
    "NoContractionError",
    "StateError",
    "IngestionError",
    "PrecisionError",
    "SimulationError",
]

__version__ = "0.1.0"
