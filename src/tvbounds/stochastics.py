"""Innovation distributions and reproducible random streams.

Only the four families the chain definitions need are provided: normal,
chi-square, gamma and inverse-gamma.

Gamma and inverse-gamma use the SHAPE-RATE parametrization throughout:
``Gamma(shape, rate)`` has mean ``shape/rate`` and ``InverseGamma(shape,
rate)`` has mean ``rate/(shape-1)`` for ``shape > 1``.  The closed-form
moment identities used by the bound certificates (e.g. the product
moment ``p/(k+p-2)``) hold only under this convention, so it is fixed
here rather than configurable.

All density evaluation goes through log space; shapes in the hundreds
(the regression example has shape 170.5) overflow a direct gamma-function
evaluation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import DomainError, ParameterError

__all__ = [
    "Normal",
    "ChiSquare",
    "Gamma",
    "InverseGamma",
    "Dist",
    "NoiseStream",
    "sample",
    "density",
    "log_density",
    "abs_moment",
    "log_chi2_density",
    "log_chi2_density_sup",
    "dist_to_dict",
    "dist_from_dict",
]


@dataclass(frozen=True)
class Normal:
    mu: float
    sigma: float

    def __post_init__(self):
        if not (self.sigma > 0):
            raise ParameterError(f"Normal sigma must be > 0, got {self.sigma}")


@dataclass(frozen=True)
class ChiSquare:
    nu: float

    def __post_init__(self):
        if not (self.nu > 0):
            raise ParameterError(f"ChiSquare nu must be > 0, got {self.nu}")


@dataclass(frozen=True)
class Gamma:
    """Gamma with SHAPE-RATE convention: mean = shape/rate."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ParameterError(
                f"Gamma shape and rate must be > 0, got ({self.shape}, {self.rate})"
            )


@dataclass(frozen=True)
class InverseGamma:
    """Inverse gamma with SHAPE-RATE convention: mean = rate/(shape-1)."""

    shape: float
    rate: float

    def __post_init__(self):
        if not (self.shape > 0 and self.rate > 0):
            raise ParameterError(
                f"InverseGamma shape and rate must be > 0, got ({self.shape}, {self.rate})"
            )


Dist = Union[Normal, ChiSquare, Gamma, InverseGamma]


@dataclass(frozen=True)
class NoiseStream:
    """Reproducible, splittable source of innovations.

    The same (seed, stream_id) pair always yields the bit-identical draw
    sequence; distinct stream ids yield statistically independent
    sequences.  A stream is owned by one execution context at a time;
    parallel work must use distinct stream ids (see :meth:`substream`).
    """

    seed: int
    stream_id: int = 0

    def generator(self) -> np.random.Generator:
        """A fresh generator positioned at the start of this stream."""
        ss = np.random.SeedSequence(entropy=self.seed, spawn_key=(self.stream_id,))
        return np.random.Generator(np.random.PCG64(ss))

    def substream(self, k: int) -> "NoiseStream":
        """Derive the k-th child stream (deterministic, collision-free
        for k < 1_000_003 and the nesting depths used here)."""
        return NoiseStream(self.seed, self.stream_id * 1_000_003 + k + 1)


def _as_generator(stream) -> np.random.Generator:
    if isinstance(stream, np.random.Generator):
        return stream
    if isinstance(stream, NoiseStream):
        return stream.generator()
    raise ParameterError(f"expected NoiseStream or numpy Generator, got {type(stream)!r}")


def sample(dist: Dist, stream, size=None):
    """Draw from ``dist`` using ``stream`` (a NoiseStream or Generator).

    Inverse-gamma draws are taken as the reciprocal of a gamma draw with
    the same shape and rate.
    """
    rng = _as_generator(stream)
    if isinstance(dist, Normal):
        return rng.normal(dist.mu, dist.sigma, size=size)
    if isinstance(dist, ChiSquare):
        return rng.chisquare(dist.nu, size=size)
    if isinstance(dist, Gamma):
        return rng.gamma(dist.shape, 1.0 / dist.rate, size=size)
    if isinstance(dist, InverseGamma):
        return 1.0 / rng.gamma(dist.shape, 1.0 / dist.rate, size=size)
    raise ParameterError(f"unknown distribution {dist!r}")


def log_density(dist: Dist, x):
    """Log density of ``dist`` at ``x`` (-inf outside the support)."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        if isinstance(dist, Normal):
            z = (x - dist.mu) / dist.sigma
            out = -0.5 * z * z - math.log(dist.sigma) - 0.5 * math.log(2 * math.pi)
        elif isinstance(dist, ChiSquare):
            h = dist.nu / 2
            out = np.where(
                x > 0,
                (h - 1) * np.log(np.where(x > 0, x, 1.0)) - x / 2 - h * math.log(2) - math.lgamma(h),
                -np.inf,
            )
        elif isinstance(dist, Gamma):
            out = np.where(
                x > 0,
                dist.shape * math.log(dist.rate)
                + (dist.shape - 1) * np.log(np.where(x > 0, x, 1.0))
                - dist.rate * x
                - math.lgamma(dist.shape),
                -np.inf,
            )
        elif isinstance(dist, InverseGamma):
            out = np.where(
                x > 0,
                dist.shape * math.log(dist.rate)
                - (dist.shape + 1) * np.log(np.where(x > 0, x, 1.0))
                - dist.rate / np.where(x > 0, x, 1.0)
                - math.lgamma(dist.shape),
                -np.inf,
            )
        else:
            raise ParameterError(f"unknown distribution {dist!r}")
    return out if out.ndim else float(out)


def density(dist: Dist, x):
    """Normalized density of ``dist`` at ``x`` (0 outside the support)."""
    ld = np.asarray(log_density(dist, x))
    out = np.exp(ld)
    return out if out.ndim else float(out)


def abs_moment(dist: Dist, k: int) -> float:
    """E[|X|^k] in closed form.

    Raises DomainError when the moment does not exist (inverse-gamma
    with shape <= k) or no closed form is implemented.
    """
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise ParameterError(f"moment order must be a positive integer, got {k}")
    if isinstance(dist, Normal):
        if dist.mu == 0.0:
            if k == 2:
                return float(dist.sigma**2)
            # E|sigma Z|^k = sigma^k 2^{k/2} Gamma((k+1)/2) / sqrt(pi)
            return float(
                dist.sigma**k
                * math.exp(0.5 * k * math.log(2) + math.lgamma((k + 1) / 2) - 0.5 * math.log(math.pi))
            )
        if k == 1:
            # folded-normal mean
            m, s = dist.mu, dist.sigma
            return float(
                s * math.sqrt(2 / math.pi) * math.exp(-(m * m) / (2 * s * s))
                + m * math.erf(m / (s * math.sqrt(2)))
            )
        if k == 2:
            return float(dist.mu**2 + dist.sigma**2)
        raise DomainError(f"no closed form for Normal(mu!=0) absolute moment of order {k}")
    if isinstance(dist, ChiSquare):
        h = dist.nu / 2
        return float(math.exp(k * math.log(2) + math.lgamma(h + k) - math.lgamma(h)))
    if isinstance(dist, Gamma):
        return float(math.exp(math.lgamma(dist.shape + k) - math.lgamma(dist.shape) - k * math.log(dist.rate)))
    if isinstance(dist, InverseGamma):
        if dist.shape <= k:
            raise DomainError(
                f"InverseGamma moment of order {k} requires shape > {k}, got {dist.shape}"
            )
        return float(math.exp(k * math.log(dist.rate) + math.lgamma(dist.shape - k) - math.lgamma(dist.shape)))
    raise ParameterError(f"unknown distribution {dist!r}")


def log_chi2_density(x):
    """Density of log(W) for W ~ chi-square(1): (2 pi)^{-1/2} exp((x - e^x)/2)."""
    x = np.asarray(x, dtype=float)
    out = np.exp(0.5 * (x - np.exp(x))) / math.sqrt(2 * math.pi)
    return out if out.ndim else float(out)


def log_chi2_density_sup() -> float:
    """sup_x of :func:`log_chi2_density`, attained at x = 0."""
    return 1.0 / math.sqrt(2 * math.pi * math.e)


_DIST_TAGS = {
    Normal: "normal",
    ChiSquare: "chi-square",
    Gamma: "gamma",
    InverseGamma: "inverse-gamma",
}


def dist_to_dict(dist: Dist) -> dict:
    if isinstance(dist, Normal):
        return {"dist": "normal", "mu": dist.mu, "sigma": dist.sigma}
    if isinstance(dist, ChiSquare):
        return {"dist": "chi-square", "nu": dist.nu}
    if isinstance(dist, Gamma):
        return {"dist": "gamma", "shape": dist.shape, "rate": dist.rate}
    if isinstance(dist, InverseGamma):
        return {"dist": "inverse-gamma", "shape": dist.shape, "rate": dist.rate}
    raise ParameterError(f"unknown distribution {dist!r}")


def dist_from_dict(d: dict) -> Dist:
    try:
        tag = d["dist"]
    except (TypeError, KeyError):
        raise ParameterError(f"distribution object must carry a 'dist' tag: {d!r}") from None
    params = {k: v for k, v in d.items() if k != "dist"}
    try:
        if tag == "normal":
            return Normal(**params)
        if tag == "chi-square":
            return ChiSquare(**params)
        if tag == "gamma":
            return Gamma(**params)
        if tag == "inverse-gamma":
            return InverseGamma(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for distribution '{tag}': {exc}") from None
    raise ParameterError(f"unknown distribution tag '{tag}'")
