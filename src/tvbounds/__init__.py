"""Analytic total-variation convergence bounds for iterated random
functions, with Monte-Carlo validation of every certificate.

Submodules
----------
stochastics
    Innovation distributions (shape-rate gamma conventions) and
    reproducible random streams.
models
    The families, each with its own certificate: the chains, and the
    two certified in closed form only (ar-d, independent-coordinates).
bounds
    The certificate algebra: (C, D, n0, gap) tuples evaluating to
    C * D^(n-n0-1) * gap, and the parts no family owns (the
    inverse-gamma mode height, the pinned sine-map rate, the location
    drift constants and their Monte-Carlo oracle, the matrix checks).
tvlab
    Histogram TV estimation and simulated TV curves.
data
    Dataset ingestion and Gibbs sufficient statistics (embedded tree
    girth sample included).
cli
    Batch front door: ``tvbounds certificate|iters|curve|dataset-stats|repro``.

``tvlab`` and ``data`` load on first use (``tvbounds.tvlab`` or an
explicit import), so a command that only builds certificates never
imports the curve simulator, the dataset reader or their thread pool
and CSV modules.  numpy, too, is imported when a module first reads an
attribute of it, so importing the package and building a closed-form
certificate never load numpy.
"""

import importlib

from . import bounds, models, stochastics
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

_LAZY_SUBMODULES = ("data", "tvlab")


def __getattr__(name):
    # PEP 562: import a lazy submodule on first attribute access; the import
    # binds it as a package attribute, so this runs once per submodule
    if name in _LAZY_SUBMODULES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
