"""Chain families as iterated random functions X_n = g(theta_n, X_{n-1}).

Each family is one frozen dataclass derived from :class:`Family` that
describes it whole, each operation a method: JSON tag, parameters,
innovation draw, transition, state, observable, certificate, (where
known) exact TV, and for the Gibbs families the full sweep they
de-initialize.  :data:`FAMILIES` (tag -> class) is the registry.
:func:`draw_innovations`, :func:`step` and :func:`observable` forward to
the family only because they are the layer boundaries
``perfbench/layertrace.py`` hooks.  :func:`couple_step` advances two
copies on shared noise (the common-random-number coupling that realizes
the contraction phase).

States are numpy-friendly: scalars and arrays flow through the same
code, so a million coupled paths advance in one vectorized call.  The
GARCH state carries the pair (x, sigma^2) because its bound consumes
both initial components.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import ClassVar, NamedTuple

import numpy as np

from . import bounds, stochastics
from .errors import ParameterError, StateError
from .stochastics import Dist, Gamma, InverseGamma, NoiseStream, Normal, dist_from_dict, dist_to_dict

__all__ = [
    "Family",
    "FAMILIES",
    "NonlinearAR",
    "ARNormal1D",
    "ARNormalD",
    "LocationGibbsTau",
    "RegressionGibbsSigma",
    "LARCH",
    "AsymARCH",
    "GARCH",
    "GarchState",
    "CoupledState",
    "draw_innovations",
    "step",
    "couple_step",
    "observable",
    "model_to_dict",
    "model_from_dict",
]


class GarchState(NamedTuple):
    x: "np.ndarray | float"
    s2: "np.ndarray | float"


@dataclass(frozen=True)
class Family:
    """A chain family.  Subclasses set ``family`` (the JSON tag), check
    their fields in ``__post_init__`` and define ``step`` and ``certificate``
    (which passes the instance itself to its ``bounds`` constructor; its
    keyword parameters are the certificate's only other inputs).  By default
    a family draws its noise from ``z`` and runs on its scalar observable."""

    family: ClassVar[str]
    # dimensions of one path's observable
    state_ndim: ClassVar[int] = 0

    def draw(self, rng: np.random.Generator, size=None):
        return stochastics.sample(self.z, rng, size=size)

    def make_state(self, x, s2=None):
        return x

    def observable(self, state):
        return state

    def paths(self, state):
        """Paths held by ``state``; None for a single path."""
        arr = np.asarray(self.observable(state))
        return None if arr.ndim == self.state_ndim else arr.shape[0]

    def exact_tv(self, x0, x0p, n):
        """Exact TV at iteration n from the starts x0, x0p; None if unknown."""
        return None

    def _require_real(self, *names):
        """Raise ParameterError unless every named field is a finite real number, not a bool."""
        for name in names:
            v = getattr(self, name)
            if not stochastics._is_real(v):
                raise ParameterError(f"{type(self).__name__} {name} must be a finite real number, got {v!r}")


@dataclass(frozen=True)
class NonlinearAR(Family):
    """X_n = (X_{n-1} - sin X_{n-1})/2 + Z_n with Z standard normal."""

    family: ClassVar[str] = "nonlinear-ar"

    def draw(self, rng: np.random.Generator, size=None):
        return rng.standard_normal(size=size)

    def step(self, state, noise):
        return 0.5 * (state - np.sin(state)) + noise

    def certificate(self, gap, d_squared=None):
        return bounds.nonlinear_ar_certificate(gap, d_squared)


@dataclass(frozen=True)
class ARNormal1D(Family):
    """X_n = a X_{n-1} + sigma Z_n."""

    family: ClassVar[str] = "ar1"
    a: float
    sigma: float

    def __post_init__(self):
        self._require_real("a", "sigma")
        if not (self.sigma > 0):
            raise ParameterError(f"ARNormal1D sigma must be > 0, got {self.sigma}")

    def draw(self, rng: np.random.Generator, size=None):
        return rng.standard_normal(size=size)

    def step(self, state, noise):
        return self.a * state + self.sigma * noise

    def certificate(self, gap):
        return bounds.ar_normal_1d_certificate(self, gap)

    def exact_tv(self, x0, x0p, n):
        """Both n-step laws are normal with variance
        v_n = sigma^2 sum_{k<n} a^(2k) and means a^n x0, a^n x0p, so
        TV = 1 - erfc(|a^n (x0 - x0p)| / (2 sqrt(2 v_n))).  For |a| > 1 both
        a^n and v_n overflow, so the argument is divided through by a^n:
        |x0 - x0p| / (2 sigma sqrt(2 sum_{j=1..n} a^(-2j)))."""
        if abs(self.a) > 1:
            s = sum(self.a ** (-2 * j) for j in range(1, n + 1))
            return 1.0 - math.erfc(abs(x0 - x0p) / (2 * self.sigma * math.sqrt(2 * s)))
        v = self.sigma**2 * sum(self.a ** (2 * k) for k in range(n))
        return 1.0 - math.erfc(abs(self.a**n * (x0 - x0p)) / (2 * math.sqrt(2 * v)))


@dataclass(frozen=True, eq=False)
class ARNormalD(Family):
    """X_n = A X_{n-1} + Sigma Z_n with Z a standard normal vector."""

    family: ClassVar[str] = "ar-d"
    state_ndim: ClassVar[int] = 1
    a: np.ndarray
    sigma: np.ndarray

    def __post_init__(self):
        a = bounds._square_matrix("A", self.a)
        s = bounds._square_matrix("Sigma", self.sigma)
        if s.shape != a.shape:
            raise ParameterError(f"Sigma shape {s.shape} must match A shape {a.shape}")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "sigma", s)

    @property
    def dim(self) -> int:
        return self.a.shape[0]

    def draw(self, rng: np.random.Generator, size=None):
        return rng.standard_normal(size=(self.dim,) if size is None else (size, self.dim))

    def step(self, state, noise):
        x = np.asarray(state, dtype=float)
        return x @ self.a.T + np.asarray(noise) @ self.sigma.T

    def make_state(self, x, s2=None):
        v = np.asarray(x, dtype=float)
        if v.shape[-1] != self.dim:
            raise ParameterError(f"state dimension {v.shape[-1]} != model dimension {self.dim}")
        return v

    def certificate(self, x0, x0p):
        return bounds.ar_normal_d_certificate(self, x0, x0p)


def _check_positive_state(x):
    if np.any(np.asarray(x) <= 0):
        raise StateError("Gibbs chain state must be strictly positive")


@dataclass(frozen=True)
class _Gibbs(Family):
    """Reduced Gibbs chain r_n = X_n Y_n r_{n-1} + Y_n on a positive state,
    with X ~ Gamma(p/2, C/2) and Y ~ InverseGamma((k+p)/2, C/2), and the
    full two-block sweep it de-initializes.  Subclasses supply ``k``,
    ``p``, ``c_stat`` (C), ``beta_tilde1`` and ``a_inv_11``; the location
    chain is the regression chain at p = 1, k = J + 1, C = S.
    ``draw`` returns the independent pair (X, Y)."""

    def draw(self, rng: np.random.Generator, size=None):
        x = stochastics.sample(Gamma(self.p / 2, self.c_stat / 2), rng, size=size)
        y = stochastics.sample(InverseGamma((self.k + self.p) / 2, self.c_stat / 2), rng, size=size)
        return x, y

    def step(self, state, noise):
        _check_positive_state(state)
        x, y = noise
        return x * y * state + y

    def make_state(self, x, s2=None):
        _check_positive_state(x)
        return x

    def innovations_from_full(self, w, g):
        """The reduced chain's (X, Y) from the full sweep's draws w and g."""
        q = np.sum(np.asarray(w) ** 2, axis=-1)
        return q / self.c_stat, self.c_stat / (2 * g)

    def full_sweep(self, state, w, g):
        """One full Gibbs sweep from the variance ``state``:

            beta_1  = beta_tilde1 + sigma sqrt((A^-1)_11) w_1
            reduced = (sigma^2 ||w||^2 + C) / (2 g)

        with w a standard normal p-vector (trailing axis of length p) and
        g ~ Gamma((k+p)/2, 1).  Returns (reduced, (beta_1, reduced)); for
        the location chain beta_1 is mu and w = 0 collapses it onto y_bar.
        """
        _check_positive_state(state)
        w = np.asarray(w, dtype=float)
        if w.shape[-1:] != (self.p,):
            raise ParameterError(f"w must have a trailing axis of length p = {self.p}, got shape {w.shape}")
        sigma = np.sqrt(state)
        beta1 = self.beta_tilde1 + sigma * math.sqrt(self.a_inv_11) * w[..., 0]
        quad = state * np.sum(w**2, axis=-1)
        reduced = (quad + self.c_stat) / (2 * g)
        return reduced, (beta1, reduced)

    def full_step(self, state, stream):
        """Advance the chain through its full two-block sweep, drawing from
        ``stream`` (a NoiseStream or numpy Generator).

        Returns ``(reduced, full)``: the reduced chain value (tau^{-1} or
        sigma^2) and the full Gibbs draw it de-initializes — (mu, tau^{-1})
        for the location model, (beta_1, sigma^2) for the regression model
        (the first regression coordinate; the remaining coordinates are
        exchangeable copies of the same construction).

        The reduced value coincides exactly with :meth:`step` fed the
        innovations from :meth:`innovations_from_full`.
        """
        rng = stochastics._as_generator(stream)
        size = self.paths(state)
        w = rng.standard_normal(size=(self.p,) if size is None else (size, self.p))
        g = stochastics.sample(Gamma((self.k + self.p) / 2, 1.0), rng, size=size)
        return self.full_sweep(state, w, g)


@dataclass(frozen=True)
class LocationGibbsTau(_Gibbs):
    """Reduced location-model Gibbs chain on the inverse precision.

    tau^{-1}_n = X_n Y_n tau^{-1}_{n-1} + Y_n with X ~ Gamma(1/2, S/2)
    and Y ~ InverseGamma((J+2)/2, S/2): the regression chain at p = 1,
    k = J + 1, C = S, with beta_tilde1 = y_bar and (A^-1)_11 = 1/J.
    ``y_bar`` is only needed to reconstruct the full draw (the location
    coordinate) in :meth:`full_step`; the reduced chain never uses it.
    """

    family: ClassVar[str] = "location-gibbs"
    p: ClassVar[int] = 1
    j: int
    s: float
    y_bar: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "j", bounds.integral("J", self.j))
        self._require_real("s", "y_bar")
        if self.j < 3:
            raise ParameterError(f"location model needs J >= 3, got {self.j}")
        if not (self.s > 0):
            raise ParameterError(f"S must be > 0, got {self.s}")

    k = property(lambda self: self.j + 1)
    c_stat = property(lambda self: self.s)
    beta_tilde1 = property(lambda self: self.y_bar)
    a_inv_11 = property(lambda self: 1 / self.j)

    def certificate(self, gap):
        return bounds.location_gibbs_certificate(self, gap)


@dataclass(frozen=True)
class RegressionGibbsSigma(_Gibbs):
    """Reduced regression Gibbs chain on the noise variance.

    sigma^2_n = X_n Y_n sigma^2_{n-1} + Y_n with X ~ Gamma(p/2, C/2) and
    Y ~ InverseGamma((k+p)/2, C/2).  ``beta_tilde1`` and ``a_inv_11``
    (the first posterior-mean coordinate and the (1,1) entry of the
    inverse Gram matrix) let :meth:`full_step` reconstruct the
    first regression coordinate of the full draw; they default to the
    standardized values (0, 1) when no dataset is attached.
    """

    family: ClassVar[str] = "regression-gibbs"
    k: int
    p: int
    c_stat: float
    beta_tilde1: float = 0.0
    a_inv_11: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "k", bounds.integral("k", self.k))
        object.__setattr__(self, "p", bounds.integral("p", self.p))
        self._require_real("c_stat", "beta_tilde1", "a_inv_11")
        if self.k < 1 or self.p < 1:
            raise ParameterError(f"need k, p >= 1, got ({self.k}, {self.p})")
        if not (self.c_stat > 0):
            raise ParameterError(f"C statistic must be > 0, got {self.c_stat}")
        if not (self.a_inv_11 > 0):
            raise ParameterError(f"a_inv_11 must be > 0, got {self.a_inv_11}")

    def certificate(self, gap):
        return bounds.regression_gibbs_certificate(self, gap)


@dataclass(frozen=True)
class LARCH(Family):
    """X_n = (beta0 + beta1 X_{n-1}) Z_n with Z > 0 a.s.

    Feeding the squared observations of a linear ARCH process through
    this family (with Z replaced by its square, e.g. chi-square(1))
    simulates the squared chain directly.
    """

    family: ClassVar[str] = "larch"
    beta0: float
    beta1: float
    z: Dist

    def __post_init__(self):
        self._require_real("beta0", "beta1")
        if not (self.beta0 > 0 and self.beta1 > 0):
            raise ParameterError(
                f"LARCH requires beta0, beta1 > 0, got ({self.beta0}, {self.beta1})"
            )
        if not self.z.positive:
            raise ParameterError("LARCH noise must be positive almost surely")

    def step(self, state, noise):
        return (self.beta0 + self.beta1 * state) * noise

    def certificate(self, gap, m=1):
        return bounds.larch_certificate(self, m, gap)


@dataclass(frozen=True)
class AsymARCH(Family):
    """X_n = sqrt((a X_{n-1} + b)^2 + c^2) Z_n, Z ~ N(0, 1) by default."""

    family: ClassVar[str] = "asym-arch"
    a: float
    b: float
    c: float
    z: Dist = Normal(0.0, 1.0)

    def __post_init__(self):
        self._require_real("a", "b", "c")
        if self.c == 0:
            raise ParameterError("asymmetric ARCH requires c != 0")

    def step(self, state, noise):
        return np.sqrt((self.a * state + self.b) ** 2 + self.c**2) * noise

    def certificate(self, gap, jensen=True):
        return bounds.asym_arch_certificate(self, gap, jensen=jensen)


@dataclass(frozen=True)
class GARCH(Family):
    """GARCH(1,1): X_n = sigma_n Z_n, sigma^2_n = alpha2 + beta2 X^2_{n-1} + gamma2 sigma^2_{n-1}.

    Fields store the squared coefficients alpha^2, beta^2, gamma^2;
    gamma^2 = 0 is ARCH(1) and beta^2 = gamma^2 = 0 is i.i.d. noise.
    Z ~ N(0, 1) by default.  The state is a :class:`GarchState`.
    """

    family: ClassVar[str] = "garch"
    alpha2: float
    beta2: float
    gamma2: float
    z: Dist = Normal(0.0, 1.0)

    def __post_init__(self):
        self._require_real("alpha2", "beta2", "gamma2")
        if not (self.alpha2 > 0 and self.beta2 >= 0 and self.gamma2 >= 0):
            raise ParameterError(
                "GARCH requires alpha2 > 0 and beta2, gamma2 >= 0, got "
                f"({self.alpha2}, {self.beta2}, {self.gamma2})"
            )

    def step(self, state, noise):
        if np.any(np.asarray(state.s2) < 0):
            raise StateError("GARCH sigma^2 state must be >= 0")
        s2 = self.alpha2 + self.beta2 * np.asarray(state.x) ** 2 + self.gamma2 * np.asarray(state.s2)
        return GarchState(np.sqrt(s2) * noise, s2)

    def make_state(self, x, s2=None):
        if s2 is None:
            raise ParameterError("GARCH state needs both x and sigma^2")
        return GarchState(x, s2)

    def observable(self, state):
        return state.x

    def certificate(self, x0, x0p, s20, s20p):
        return bounds.garch_certificate(self, x0, x0p, s20, s20p)


FAMILIES = {
    cls.family: cls
    for cls in (NonlinearAR, ARNormal1D, ARNormalD, LocationGibbsTau, RegressionGibbsSigma, LARCH, AsymARCH, GARCH)
}


@dataclass
class CoupledState:
    """Two chain copies advanced in lockstep."""

    x: object
    x_prime: object
    iteration: int = 0


def observable(model: Family, state):
    """The scalar the TV curves histogram (X_n itself; GARCH tracks x).
    Forwards to ``model.observable``; a layer boundary perfbench hooks."""
    return model.observable(state)


def draw_innovations(model: Family, rng: np.random.Generator, size=None):
    """One iteration's innovations for ``model``.

    ``size`` is None for a single path or an int for that many paths.
    For the vector family the draw has shape (d,) or (size, d).  Forwards
    to ``model.draw``; a layer boundary perfbench hooks.
    """
    return model.draw(rng, size)


def step(model: Family, state, noise):
    """One transition; deterministic given (state, noise).  Forwards to
    ``model.step``; a layer boundary perfbench hooks."""
    return model.step(state, noise)


def couple_step(model: Family, cs: CoupledState, stream: NoiseStream) -> CoupledState:
    """Advance both copies one iteration on one shared innovation draw
    (the common-random-number coupling).

    Iteration ``it`` draws from ``stream.substream(2 * it)``, so
    trajectories are a pure function of the stream's key and the initial
    states.
    """
    rng = stream.substream(2 * cs.iteration).generator()
    noise = draw_innovations(model, rng, size=model.paths(cs.x))
    return CoupledState(
        x=step(model, cs.x, noise),
        x_prime=step(model, cs.x_prime, noise),
        iteration=cs.iteration + 1,
    )


def model_to_dict(model: Family) -> dict:
    """JSON-ready {"family": ..., "params": {...}} form: one entry per
    field, the noise ``z`` as a tagged distribution object."""
    if FAMILIES.get(getattr(model, "family", None)) is not type(model):
        raise ParameterError(f"unknown model {model!r}")
    params = {}
    for f in fields(model):
        value = getattr(model, f.name)
        if f.name == "z":
            value = dist_to_dict(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        params[f.name] = value
    return {"family": model.family, "params": params}


def model_from_dict(d: dict) -> Family:
    try:
        family = d["family"]
        params = dict(d.get("params", {}))
    except (TypeError, KeyError):
        raise ParameterError(f"model spec must carry 'family' and 'params': {d!r}") from None
    cls = FAMILIES.get(str(family))
    if cls is None:
        raise ParameterError(f"unknown family '{family}'")
    if "z" in params:
        params["z"] = dist_from_dict(params["z"])
    try:
        return cls(**params)
    except TypeError as exc:
        raise ParameterError(f"bad parameters for family '{family}': {exc}") from None
