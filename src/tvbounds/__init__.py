"""Analytic total-variation convergence bounds for iterated random
functions, with Monte-Carlo validation of every certificate.

Submodules
----------
stochastics
    Innovation distributions (shape-rate gamma conventions) and
    reproducible random streams.
models
    The chain families, each with its own certificate, and their
    shared-noise coupled step.
bounds
    The certificate algebra: (C, D, n0, gap) tuples evaluating to
    C * D^(n-n0-1) * gap, and the parts no family owns (the
    independent-coordinates certificate, the inverse-gamma mode height,
    the sine-map and drift searches, the matrix checks).
tvlab
    Histogram TV estimation and simulated TV curves.
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
    "SimulationError",
]

__version__ = "0.1.0"
