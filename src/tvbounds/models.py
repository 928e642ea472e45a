"""Chain families as iterated random functions X_n = g(theta_n, X_{n-1}).

Each family is one frozen :class:`stochastics.Record` derived from
:class:`Family` that describes it whole, each operation a method: JSON
tag, parameters, innovation draw, transition, state, observable,
certificate (the family's C and D, written out from its fields) and
(where known) exact TV; a Gibbs family is its reduced scalar chain alone.
Each family declares its parameter domains once, in its ``domains`` map
of field to :mod:`stochastics` validator, which :class:`Record` enforces
on every construction; ``__post_init__`` keeps only the rules across
fields or beyond a numeric domain (J >= 3, c != 0, positive LARCH noise).
:data:`FAMILIES` (tag -> class) is the registry.
:func:`draw_innovations`, :func:`step` and :func:`observable` forward to
the family only because they are the layer boundaries
``perfbench/layertrace.py`` hooks.

States are numpy-friendly: scalars and arrays flow through the same
code, so a million coupled paths advance in one vectorized call.  The
GARCH state carries the pair (x, sigma^2) because its bound consumes
both initial components.  ``step(state, noise, out=None)`` writes the
next state into ``out``, which may be ``state`` itself, so a simulation
loop advances its paths in place without a fresh array per iteration;
without ``out`` it allocates one and leaves its inputs untouched.  A
scalar start or state is checked without numpy, which is imported on
first use, so a closed-form certificate never loads it.
"""

from __future__ import annotations

import math
from typing import ClassVar, NamedTuple

from . import bounds, stochastics
from ._lazy import lazy_import
from .bounds import BoundCertificate
from .errors import DomainError, ParameterError, StateError
from .stochastics import (Dist, Gamma, InverseGamma, Normal, Record, dist_from_dict, dist_to_dict, finite,
                          finite_nonnegative, finite_positive, integral)

np = lazy_import("numpy")

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
    "draw_innovations",
    "step",
    "observable",
    "model_to_dict",
    "model_from_dict",
]


class GarchState(NamedTuple):
    x: "np.ndarray | float"
    s2: "np.ndarray | float"


def _out(out, *operands):
    """Where a step writes: ``out`` itself, else a fresh float array of the
    operands' broadcast shape (0-d for scalars)."""
    return np.empty(np.broadcast(*operands).shape) if out is None else out


class Family(Record):
    """A chain family.  Subclasses set ``family`` (the JSON tag), declare
    their fields' numeric domains in ``domains`` (see
    :class:`stochastics.Record`), keep any other rule in ``__post_init__``
    and define ``step`` and ``certificate`` (which builds the family's
    :class:`bounds.BoundCertificate` from its fields, checking only what
    its C adds and leaving D < 1 to the certificate; its keyword
    parameters are the certificate's only other inputs).  By default a
    family draws its noise from ``z``, takes any start as a state and runs
    on its scalar observable.

    ``draw(rng, size=None, out=None)`` is one iteration's innovations.
    With ``out``, an earlier draw of the same shape (for the Gibbs
    families a pair of arrays), it fills that in place and returns it,
    bit-identical to a fresh draw from the same generator state, so a
    simulation loop can hand each iteration's spent noise back as the
    next iteration's ``out``.

    ``step(state, noise, out=None)`` is one transition.  It writes the next
    state into ``out`` (an array, or for GARCH a pair of arrays, of the
    broadcast shape of state and noise) and returns it; ``out`` may be
    ``state`` itself.  With ``out`` None it first allocates a fresh float
    array and runs the same arithmetic, so the result is bit-identical
    either way.  It never writes ``noise``, and writes ``state`` only when
    the caller passes it as ``out``."""

    family: ClassVar[str]
    # dimensions of one path's observable
    state_ndim: ClassVar[int] = 0

    def draw(self, rng: np.random.Generator, size=None, out=None):
        return stochastics.sample(self.z, rng, size=size, out=out)

    def make_state(self, x, s2=None):
        return x

    def start_state(self, x, s2=None, names=("x0", "s20")):
        """``make_state`` of one path started at ``x`` (sigma^2 ``s2`` for GARCH),
        the one start check: ParameterError names (``names``) a start that is
        not made of finite real numbers, not bools, shaped as one path's state
        (a number; for ar-d a vector of A's dimension)."""
        for name, v, shape in ((names[0], x, (self.dim,) if self.state_ndim else ()), (names[1], s2, ())):
            if v is None or (not shape and stochastics._is_real(v)):
                continue
            values = np.array(v, dtype=object)
            if values.shape != shape or not all(map(stochastics._is_real, values.flat)):
                what = f"a list of {shape[0]} numbers" if shape else "a number"
                raise ParameterError(f"start {name} must be {what}, finite and not bool, got {v!r}")
        return self.make_state(x, s2)

    def observable(self, state):
        return state

    def exact_tv(self, x0, x0p, n):
        """Exact TV at iteration n from the starts x0, x0p; None if unknown."""
        return None


class NonlinearAR(Family):
    """X_n = (X_{n-1} - sin X_{n-1})/2 + Z_n with Z standard normal."""

    family: ClassVar[str] = "nonlinear-ar"
    z: ClassVar[Dist] = Normal(0.0, 1.0)

    def step(self, state, noise, out=None):
        out = _out(out, state, noise)
        sin = np.sin(state)
        np.subtract(state, sin, out=out)
        out *= 0.5
        out += noise
        return out

    def certificate(self, gap, d_squared=None):
        """Two-iteration certificate, TV(n) <= (1/sqrt(2 pi)) * (D^2)^floor(n/2) * gap,
        with D^2 from the pinned constant :func:`bounds.nonlinear_ar_D` unless
        ``d_squared`` is given."""
        if d_squared is None:
            d_squared = bounds.nonlinear_ar_D() ** 2
        else:
            finite_positive("two-step factor D^2", d_squared)
        return BoundCertificate(
            c=1.0 / math.sqrt(2 * math.pi),
            d=d_squared,
            n0=0,
            gap=gap,
            family=self.family,
            exp_offset=1,
            exp_step=2,
            notes=("two-iteration contraction: exponent floor(n/2) with rate D^2",),
            details={"d": math.sqrt(d_squared)},
        )


class ARNormal1D(Family):
    """X_n = a X_{n-1} + sigma Z_n.  The innovation ``draw`` returns is
    sigma Z_n itself, drawn from ``z`` = Normal(0, sigma) and scaled in
    place, so ``step`` adds it with no temporary."""

    family: ClassVar[str] = "ar1"
    a: float
    sigma: float
    domains = {"a": finite, "sigma": finite_positive}

    z = property(lambda self: Normal(0.0, self.sigma))

    def step(self, state, noise, out=None):
        out = _out(out, state, noise)
        np.multiply(state, self.a, out=out)
        out += noise
        return out

    def certificate(self, gap):
        """D = |a| and C the noise density height 1/(sigma sqrt(2 pi)) (a single mode adds nothing)."""
        d = abs(float(self.a))
        k = 1.0 / (self.sigma * math.sqrt(2 * math.pi))
        return BoundCertificate(c=k, d=d, n0=0, gap=gap, family=self.family, details={"noise_density_sup": k})

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


class ARNormalD(Family):
    """X_n = A X_{n-1} + Sigma Z_n with Z a standard normal vector."""

    family: ClassVar[str] = "ar-d"
    state_ndim: ClassVar[int] = 1
    z: ClassVar[Dist] = Normal(0.0, 1.0)  # each coordinate's noise
    a: np.ndarray
    sigma: np.ndarray
    __eq__, __hash__ = object.__eq__, object.__hash__  # array fields: compare by identity

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

    def draw(self, rng: np.random.Generator, size=None, out=None):
        return stochastics.sample(self.z, rng, (self.dim,) if size is None else (size, self.dim), out)

    def step(self, state, noise, out=None):
        drift = np.asarray(state, dtype=float) @ self.a.T
        shock = np.asarray(noise) @ self.sigma.T
        return np.add(drift, shock, out=_out(out, drift, shock))

    def make_state(self, x, s2=None):
        v = np.asarray(x, dtype=float)
        if v.shape[-1:] != (self.dim,):
            raise ParameterError(f"state shape {v.shape} must end in the model dimension {self.dim}")
        return v

    def certificate(self, x0, x0p):
        """For symmetric A: rate max_i |lambda_i| = ||A||_2 against D^n (exp_offset=1) and

            C = sqrt(d/(2 pi)) * ||Sigma^-1||_F * ||P||_F * ||P^-1||_F * ||x0 - x0'||_2,

        where P, the orthonormal eigenvectors of A, has ||P||_F = ||P^-1||_F = sqrt(d).
        """
        a = self.a
        if np.linalg.norm(a - a.T) > 1e-12 * np.linalg.norm(a):
            raise ParameterError("A is not symmetric; only symmetric input is supported")
        rate = float(np.linalg.norm(a, 2))
        # ||Sigma^-1||_F from the singular values s of Sigma: sqrt(sum 1/s_i^2)
        sigma_inv_f = np.linalg.norm(1 / bounds._singular_values("Sigma", self.sigma))
        d = self.dim
        gap_norm = float(np.linalg.norm(self.start_state(x0) - self.start_state(x0p, names=("x0p", "s20p"))))
        c = float(math.sqrt(d / (2 * math.pi)) * sigma_inv_f * d * gap_norm)
        return BoundCertificate(
            c=c,
            d=rate,
            n0=0,
            gap=1.0,
            family=self.family,
            exp_offset=1,
            notes=("bound convention D^n; the initial-distance norm is folded into C",),
            details={"dim": d, "initial_distance": gap_norm},
        )


# the state checks test a finite real number without numpy, anything else as an array
def _check_positive_state(x):
    if (x <= 0) if stochastics._is_real(x) else np.any(np.asarray(x) <= 0):
        raise StateError("Gibbs chain state must be strictly positive")


def _check_garch_s2(s2):
    if (s2 < 0) if stochastics._is_real(s2) else np.any(np.asarray(s2) < 0):
        raise StateError("GARCH sigma^2 state must be >= 0")


class _Gibbs(Family):
    """Reduced Gibbs chain r_n = X_n Y_n r_{n-1} + Y_n on a positive state,
    with X ~ Gamma(p/2, C/2) and Y ~ InverseGamma((k+p)/2, C/2), which
    de-initializes the full two-block sweep (a test oracle), so carries its
    certificate.  Subclasses supply ``k``, ``p`` and ``c_stat`` (C); the
    location chain is the regression chain at p = 1, k = J + 1, C = S.
    ``draw`` returns the independent pair (X, Y), from ``x_law`` and ``y_law``;
    its ``out`` is such a pair of arrays, filled X first."""

    x_law = property(lambda self: Gamma(self.p / 2, self.c_stat / 2))
    y_law = property(lambda self: InverseGamma((self.k + self.p) / 2, self.c_stat / 2))

    def draw(self, rng: np.random.Generator, size=None, out=None):
        x_out, y_out = (None, None) if out is None else out
        x = stochastics.sample(self.x_law, rng, size=size, out=x_out)
        y = stochastics.sample(self.y_law, rng, size=size, out=y_out)
        return x, y

    def step(self, state, noise, out=None):
        _check_positive_state(state)
        x, y = noise
        out = _out(out, state, x, y)
        xy = np.multiply(x, y)
        np.multiply(xy, state, out=out)
        out += y
        return out

    def make_state(self, x, s2=None):
        _check_positive_state(x)
        return x


class LocationGibbsTau(_Gibbs):
    """Reduced location-model Gibbs chain on the inverse precision.

    tau^{-1}_n = X_n Y_n tau^{-1}_{n-1} + Y_n with X ~ Gamma(1/2, S/2)
    and Y ~ InverseGamma((J+2)/2, S/2): the regression chain at p = 1,
    k = J + 1, C = S.  The sample mean enters only the full draw of the
    location coordinate, so the chain does not take it.
    """

    family: ClassVar[str] = "location-gibbs"
    p: ClassVar[int] = 1
    j: int
    s: float
    domains = {"j": integral, "s": finite_positive}

    def __post_init__(self):
        if self.j < 3:
            raise ParameterError(f"location model needs J >= 3, got {self.j}")

    k = property(lambda self: self.j + 1)
    c_stat = property(lambda self: self.s)

    def certificate(self, gap):
        """D = 1/J and C the closed form

            K = (S/2)^((J-1)/2) / Gamma((J-1)/2) * (S/(J+1))^(-(J-3)/2) * e^(-(J+1)/2).

        The mode height of InverseGamma((J-1)/2, S/2), what the same
        construction yields for the regression chain, is recorded under
        ``details['c_mode_height']``.  The two differ by the factor
        ((J+1)/S)^2 because the closed form's exponent -(J-3)/2 is not the
        mode-height exponent -(J+1)/2; both are reported rather than
        silently reconciled.
        """
        j, s = self.j, self.s
        ln = (
            (j - 1) / 2 * math.log(s / 2)
            - math.lgamma((j - 1) / 2)
            - (j - 3) / 2 * math.log(s / (j + 1))
            - (j + 1) / 2
        )
        return BoundCertificate(
            c=float(math.exp(ln)),
            d=1.0 / j,
            n0=0,
            gap=gap,
            family=self.family,
            notes=(
                "coalescing constant uses the closed form; the inverse-gamma "
                "mode height differs by ((J+1)/S)^2 and is kept in details",
            ),
            details={"j": j, "s": s, "c_mode_height": bounds.inverse_gamma_mode_height((j - 1) / 2, s / 2)},
        )


class RegressionGibbsSigma(_Gibbs):
    """Reduced regression Gibbs chain on the noise variance.

    sigma^2_n = X_n Y_n sigma^2_{n-1} + Y_n with X ~ Gamma(p/2, C/2) and
    Y ~ InverseGamma((k+p)/2, C/2).  The posterior mean and the inverse
    Gram matrix enter only the full draw of the coefficients, so the
    chain does not take them.
    """

    family: ClassVar[str] = "regression-gibbs"
    k: int
    p: int
    c_stat: float
    domains = {"k": integral, "p": integral, "c_stat": finite_positive}

    def __post_init__(self):
        if self.k < 1 or self.p < 1:
            raise ParameterError(f"need k, p >= 1, got ({self.k}, {self.p})")

    def certificate(self, gap):
        """D = p/(k+p-2) and C the mode height of InverseGamma((k+2p)/2, C_stat/2)."""
        k, p, c_stat = self.k, self.p, self.c_stat
        if k + p <= 2:
            raise ParameterError(f"need k + p > 2, got k={k}, p={p}")
        return BoundCertificate(
            c=bounds.inverse_gamma_mode_height((k + 2 * p) / 2, c_stat / 2),
            d=p / (k + p - 2),
            n0=0,
            gap=gap,
            family=self.family,
            details={"k": k, "p": p, "c_stat": c_stat},
        )


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
    domains = {"beta0": finite_positive, "beta1": finite_positive}

    def __post_init__(self):
        if not self.z.positive:
            raise ParameterError("LARCH noise must be positive almost surely")

    def step(self, state, noise, out=None):
        out = _out(out, state, noise)
        np.multiply(state, self.beta1, out=out)
        out += self.beta0
        out *= noise
        return out

    def make_state(self, x, s2=None):
        # the certificate's C is the Lipschitz constant of log(beta0 + beta1 x) on x >= 0 only
        if (x < 0) if stochastics._is_real(x) else np.any(np.asarray(x) < 0):
            raise StateError("LARCH state must be >= 0")
        return x

    def certificate(self, gap):
        """C = beta1 / beta0 * sup_x e^x f_Z(e^x) and D = beta1 E|Z|.

        The sup is ``z.log_scale_sup()``; log Z is log-concave, so unimodal:
        M = 1 and the mode factor (M + 1)/2 is 1."""
        sup = self.z.log_scale_sup()
        return BoundCertificate(
            c=self.beta1 / self.beta0 * sup,
            d=self.beta1 * stochastics.abs_moment(self.z, 1),
            n0=0,
            gap=gap,
            family=self.family,
            details={"log_noise_density_sup": sup},
        )


class AsymARCH(Family):
    """X_n = sqrt((a X_{n-1} + b)^2 + c^2) Z_n, Z ~ N(0, 1) by default."""

    family: ClassVar[str] = "asym-arch"
    a: float
    b: float
    c: float
    z: Dist = Normal(0.0, 1.0)
    domains = {"a": finite, "b": finite, "c": finite}

    def __post_init__(self):
        if self.c == 0:
            raise ParameterError("asymmetric ARCH requires c != 0")

    def step(self, state, noise, out=None):
        out = _out(out, state, noise)
        np.multiply(state, self.a, out=out)
        out += self.b
        np.square(out, out=out)
        out += self.c**2
        np.sqrt(out, out=out)
        out *= noise
        return out

    def certificate(self, gap, jensen=True):
        """C = |a| / |c| and D = |a| E|Z|, or its Jensen relaxation
        |a| sqrt(E[Z^2]) when ``jensen`` is set, the convention the worked
        example uses; both values are recorded, d_jensen only where E[Z^2] exists.

        log|X_1| is (1/2) log((a x + b)^2 + c^2) + log|Z|, a shift of slope
        at most |a| / (2 |c|) in x, so TV_1 <= sup f_{log|Z|} |a| / (2 |c|) dist:
        C holds only for noise whose ``log_scale_sup()`` is at most 2, unless a = 0."""
        if not isinstance(jensen, bool):
            raise ParameterError(f"jensen must be true or false, got {jensen!r}")
        a = self.a
        # at a = 0 the chain forgets its start in one step: C = D = 0 for any noise
        if a != 0 and (sup := self.z.log_scale_sup()) > 2:
            raise DomainError(f"{self.family} C = |a|/|c| needs a log|Z| density peaking at most at 2, "
                              f"not {sup:.6g} ({self.z!r})")
        details = {"d_exact": abs(a) * stochastics.abs_moment(self.z, 1)}
        try:
            details["d_jensen"] = abs(a) * math.sqrt(stochastics.abs_moment(self.z, 2))
        except DomainError:  # E[Z^2] is not needed for D = |a| E|Z|
            if jensen:
                raise
        return BoundCertificate(
            c=abs(a) / abs(self.c),
            d=details["d_jensen" if jensen else "d_exact"],
            n0=0,
            gap=gap,
            family=self.family,
            notes=("D is the Jensen relaxation |a| sqrt(E[Z^2])",) if jensen else (),
            details=details,
        )


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
    domains = {"alpha2": finite_positive, "beta2": finite_nonnegative, "gamma2": finite_nonnegative}

    def step(self, state, noise, out=None):
        _check_garch_s2(state.s2)
        if out is None:
            shape = np.broadcast(*state, noise).shape
            out = GarchState(np.empty(shape), np.empty(shape))
        x, s2 = out
        # sigma^2_n = (alpha2 + beta2 x^2) + gamma2 sigma^2_{n-1}, built in x
        # first: state.x is read before x is written, state.s2 before s2
        np.square(state.x, out=x)
        x *= self.beta2
        x += self.alpha2
        np.multiply(state.s2, self.gamma2, out=s2)
        s2 += x
        np.sqrt(s2, out=x)
        x *= noise
        return out

    def make_state(self, x, s2=None):
        if s2 is None:
            raise ParameterError("GARCH state needs both x and sigma^2")
        _check_garch_s2(s2)
        return GarchState(x, s2)

    def observable(self, state):
        return state.x

    def certificate(self, x0, x0p, s20, s20p):
        """From known initial values,

            TV(n) <= D^(n-1)/alpha * sqrt(beta2 |x0^2 - x0'^2| + gamma2 |s20 - s20'|)

        with D = sqrt(beta2 E[Z^2] + gamma2).  Packaged with n0 = 1:
        C = D/(alpha E|Z|) and gap the initial-condition value
        sqrt(beta2 |x0^2 - x0'^2| + gamma2 |s20 - s20'|) * E|Z|, so that
        C * D^(n-2) * gap reproduces the display above.
        """
        beta2, gamma2 = self.beta2, self.gamma2
        self.start_state(x0, s20)
        self.start_state(x0p, s20p, ("x0p", "s20p"))
        d = math.sqrt(beta2 * stochastics.abs_moment(self.z, 2) + gamma2)
        e_abs_z = stochastics.abs_moment(self.z, 1)
        alpha = math.sqrt(self.alpha2)
        init = math.sqrt(beta2 * abs(x0**2 - x0p**2) + gamma2 * abs(s20 - s20p))
        # identical initial conditions give gap 0: degenerate but legal
        return BoundCertificate(
            c=d / (alpha * e_abs_z),
            d=d,
            n0=1,
            gap=init * e_abs_z,
            family=self.family,
            details={"coefficient": init / alpha},
        )


FAMILIES = {
    cls.family: cls
    for cls in (NonlinearAR, ARNormal1D, ARNormalD, LocationGibbsTau, RegressionGibbsSigma, LARCH, AsymARCH, GARCH)
}


def observable(model: Family, state):
    """The scalar the TV curves histogram (X_n itself; GARCH tracks x).
    Forwards to ``model.observable``; a layer boundary perfbench hooks."""
    return model.observable(state)


def draw_innovations(model: Family, rng: np.random.Generator, size=None, out=None):
    """One iteration's innovations for ``model``.

    ``size`` is None for a single path or an int for that many paths.
    For the vector family the draw has shape (d,) or (size, d).  With
    ``out`` the innovations fill it in place; see :class:`Family`.
    Forwards to ``model.draw``; a layer boundary perfbench hooks.
    """
    return model.draw(rng, size, out)


def step(model: Family, state, noise, out=None):
    """One transition; deterministic given (state, noise).  Writes into
    ``out`` when given (``state`` itself advances in place) and returns
    it; see :class:`Family`.  Forwards to ``model.step``; a layer boundary
    perfbench hooks."""
    return model.step(state, noise, out=out)


def model_to_dict(model: Family) -> dict:
    """JSON-ready {"family": ..., "params": {...}} form: one entry per
    field, the noise ``z`` as a tagged distribution object."""
    if FAMILIES.get(getattr(model, "family", None)) is not type(model):
        raise ParameterError(f"unknown model {model!r}")
    params = {}
    for name in model._fields:
        value = getattr(model, name)
        if name == "z":
            value = dist_to_dict(value)
        elif isinstance(value, np.ndarray):
            value = value.tolist()
        params[name] = value
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
