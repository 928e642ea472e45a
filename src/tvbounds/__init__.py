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
    C * D^(n-n0-1) * gap.
spectral
    Dense symmetric linear algebra for the vector autoregressive bound.
tvlab
    Histogram TV estimation, exact AR-normal TV, simulated TV curves,
    shifted-density integrals.
data
    Dataset ingestion and Gibbs sufficient statistics (embedded tree
    girth sample included).
cli
    Batch front door: ``tvbounds certificate|iters|curve|dataset-stats|repro``.
"""

from . import bounds, data, models, spectral, stochastics, tvlab
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
    "spectral",
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
