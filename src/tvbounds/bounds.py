"""Geometric total-variation bound certificates.

A certificate packages the tuple (C, D, n0, gap) so that

    TV(n)  <=  C * D^(n - n0 - 1) * gap        for n > n0,

where D in (0, 1) is the per-iteration contraction factor of the
shared-noise coupling, C the coalescing constant, and gap the expected
distance between the two copies at iteration n0.  Two exponent
conventions appear among the covered families and are encoded on the
certificate rather than folded into C:

* ``exp_offset=1`` evaluates C * D^(n - n0) (the vector autoregressive
  and independent-coordinate bounds are stated against D^n),
* ``exp_step=2`` halves the exponent, C * D^floor(n/2), for the
  two-iteration contraction of the sine-map chain.

Raw bound values may exceed 1; evaluation reports both the raw value
and the value clamped into [0, 1].

A chain family's constructor takes the validated ``models`` family as its
first argument and reads its fields: the family checks its parameter
domain once, and the constructor checks only what the certificate needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import stochastics
from .errors import DomainError, NoContractionError, ParameterError
from .stochastics import Dist, InverseGamma, abs_moment

__all__ = [
    "BoundCertificate",
    "BoundValue",
    "DriftSpec",
    "bound_eval",
    "iterations_to_epsilon",
    "inverse_gamma_mode_height",
    "regression_gibbs_certificate",
    "location_k_closed_form",
    "location_gibbs_certificate",
    "drift_expected_distance",
    "location_drift_constants",
    "mc_location_drift_fit",
    "independent_coordinates_certificate",
    "ar_normal_1d_certificate",
    "ar_normal_d_certificate",
    "nonlinear_ar_two_step_ratio",
    "nonlinear_ar_exact_two_step_ratio",
    "nonlinear_ar_D",
    "nonlinear_ar_certificate",
    "golden_section_max",
    "integral",
    "larch_certificate",
    "asym_arch_certificate",
    "garch_certificate",
    "certificate_to_dict",
]


def integral(name: str, value) -> int:
    """``value`` as an int; ints, numpy integers and integral floats pass, bools do not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer)) or value % 1:
        raise ParameterError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _square_matrix(name: str, m) -> np.ndarray:
    """``m`` as a float array; ParameterError unless it is square with finite entries."""
    try:
        a = np.asarray(m, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"{name} must be a matrix of numbers, got {m!r}") from None
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ParameterError(f"{name} must be square, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ParameterError(f"{name} entries must be finite")
    return a


def _inverse(name: str, a: np.ndarray) -> np.ndarray:
    """Inverse of the square float matrix ``a``, whose condition number must be at most 1e12."""
    try:
        cond = np.linalg.cond(a)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"{name} inversion failed: {exc}") from None
    if not np.isfinite(cond) or cond > 1e12:
        raise ParameterError(f"{name} is singular or ill-conditioned (condition {cond:.3e})")
    return np.linalg.inv(a)


class BoundValue(NamedTuple):
    raw: float
    clamped: float


@dataclass(frozen=True)
class BoundCertificate:
    """The computable bound C * D^exponent(n) * gap.

    ``details`` carries auxiliary numbers (alternative constants,
    coefficient forms) keyed by short names; ``notes`` carries human-
    readable caveats.
    """

    c: float
    d: float
    n0: int
    gap: float
    family: str = ""
    notes: tuple = ()
    exp_offset: int = 0
    exp_step: int = 1
    details: dict = field(default_factory=dict)

    def __post_init__(self):
        for key, v in (("C", self.c), ("D", self.d), ("gap", self.gap)):
            if not stochastics._is_real(v):
                raise ParameterError(f"certificate {key} must be a finite real number, got {v!r}")
        # C = 0 / D = 0 are degenerate but legal (immediate coupling)
        if self.c < 0:
            raise ParameterError(f"certificate C must be >= 0, got {self.c}")
        if not (0 <= self.d < 1):
            raise NoContractionError(f"certificate D must lie in [0, 1), got {self.d}")
        if self.n0 < 0:
            raise ParameterError(f"n0 must be >= 0, got {self.n0}")
        if self.gap < 0:
            raise ParameterError(f"gap must be >= 0, got {self.gap}")
        if self.exp_step < 1:
            raise ParameterError(f"exp_step must be >= 1, got {self.exp_step}")

    def exponent(self, n: int) -> int:
        e = n - self.n0 - 1 + self.exp_offset
        return e // self.exp_step if self.exp_step > 1 else e


def bound_eval(cert: BoundCertificate, n: int) -> BoundValue:
    """Evaluate the certificate at iteration n > n0."""
    if n <= cert.n0:
        raise DomainError(f"bound is defined for n > n0 = {cert.n0}, got n = {n}")
    raw = cert.c * cert.d ** cert.exponent(n) * cert.gap
    return BoundValue(raw, min(1.0, raw))


def iterations_to_epsilon(cert: BoundCertificate, eps: float) -> int:
    """Smallest n > n0 with bound_eval(n).raw < eps (finite since D < 1)."""
    if not (0 < eps < 1):
        raise ParameterError(f"epsilon must lie in (0, 1), got {eps}")
    n = cert.n0 + 1
    if cert.gap == 0.0 or cert.c * cert.gap < eps:
        return n
    if cert.d == 0.0:
        # bound is C*gap while the exponent is 0, then drops to 0
        while cert.exponent(n) == 0:
            n += 1
        return n
    # jump close with logs, then scan
    e_needed = (math.log(eps) - math.log(cert.c * cert.gap)) / math.log(cert.d)
    n = max(cert.n0 + 1, cert.n0 + 1 - cert.exp_offset + int(math.floor(e_needed)) * cert.exp_step - 2)
    while bound_eval(cert, n).raw >= eps:
        n += 1
    while n - 1 > cert.n0 and bound_eval(cert, n - 1).raw < eps:
        n -= 1
    return n


def inverse_gamma_mode_height(alpha: float, beta: float) -> float:
    """Density of InverseGamma(alpha, beta) at its mode beta/(alpha+1).

    Evaluated in log space; safe for shapes in the hundreds.
    """
    return stochastics.density(InverseGamma(alpha, beta), beta / (alpha + 1))


def regression_gibbs_certificate(model, gap: float) -> BoundCertificate:
    """Certificate for a RegressionGibbsSigma: D = p/(k+p-2), C the mode
    height of InverseGamma((k+2p)/2, C_stat/2)."""
    k, p, c_stat = model.k, model.p, model.c_stat
    if k + p <= 2:
        raise ParameterError(f"need k + p > 2, got k={k}, p={p}")
    d = p / (k + p - 2)
    if d >= 1.0:
        raise NoContractionError(f"D = p/(k+p-2) = {d:.6g} >= 1: chain does not contract")
    c = inverse_gamma_mode_height((k + 2 * p) / 2, c_stat / 2)
    return BoundCertificate(
        c=c,
        d=d,
        n0=0,
        gap=gap,
        family="regression-gibbs",
        details={"k": k, "p": p, "c_stat": c_stat},
    )


def location_k_closed_form(j: int, s: float) -> float:
    """Closed-form coalescing constant for the location Gibbs chain:

        K = (S/2)^((J-1)/2) / Gamma((J-1)/2) * (S/(J+1))^(-(J-3)/2) * e^(-(J+1)/2)
    """
    if j < 3:
        raise ParameterError(f"location model needs J >= 3, got {j}")
    if not (s > 0):
        raise ParameterError(f"need S > 0, got {s}")
    ln = (
        (j - 1) / 2 * math.log(s / 2)
        - math.lgamma((j - 1) / 2)
        - (j - 3) / 2 * math.log(s / (j + 1))
        - (j + 1) / 2
    )
    return float(math.exp(ln))


def location_gibbs_certificate(model, gap: float) -> BoundCertificate:
    """Certificate for the location Gibbs chain, a LocationGibbsTau: D = 1/J.

    Two coalescing constants are carried.  The certificate uses the
    closed form of :func:`location_k_closed_form`; the mode height of
    InverseGamma((J-1)/2, S/2) — what the same construction yields for
    the regression chain — is recorded under ``details['c_mode_height']``.
    The two differ by the factor ((J+1)/S)^2 because the closed form's
    exponent -(J-3)/2 is not the mode-height exponent -(J+1)/2; both are
    reported rather than silently reconciled.
    """
    j, s = model.j, model.s
    k_closed = location_k_closed_form(j, s)
    k_mode = inverse_gamma_mode_height((j - 1) / 2, s / 2)
    return BoundCertificate(
        c=k_closed,
        d=1.0 / j,
        n0=0,
        gap=gap,
        family="location-gibbs",
        notes=(
            "coalescing constant uses the closed form; the inverse-gamma "
            "mode height differs by ((J+1)/S)^2 and is kept in details",
        ),
        details={"j": j, "s": s, "c_mode_height": k_mode},
    )


@dataclass(frozen=True)
class DriftSpec:
    """Drift condition E[V(X_n) | X_{n-1}] <= lam*V(X_{n-1}) + b for V(x) = (x+h)^2."""

    lam: float
    b: float
    h: float

    def __post_init__(self):
        if not (0 < self.lam < 1):
            raise ParameterError(f"drift lambda must lie in (0, 1), got {self.lam}")
        if not (self.b >= 0):
            raise ParameterError(f"drift slack b must be >= 0, got {self.b}")


def drift_expected_distance(drift: DriftSpec, e_abs_x0_plus_h: float) -> float:
    """Stationary expected distance bound sqrt(b/(1-lam)) + E|X_0 + h|."""
    if not (e_abs_x0_plus_h >= 0):
        raise ParameterError("E|X_0 + h| must be >= 0")
    return math.sqrt(drift.b / (1.0 - drift.lam)) + e_abs_x0_plus_h


def location_drift_constants(j: int, s: float) -> DriftSpec:
    """Drift constants (lam, b, h) for V(x) = (x+h)^2 on the location chain.

    With X ~ Gamma(1/2, S/2), Y ~ InverseGamma((J+2)/2, S/2):

        E[V(tau^{-1}_n) | v] = E[X^2]E[Y^2] v^2 + 2 E[X](E[Y^2] - h E[Y]) v
                               + E[Y^2] - 2 h E[Y] + h^2

    Matching against lam*(v+h)^2 + b forces lam = E[X^2]E[Y^2] = 3/(J(J-2))
    and h = S/(J+1), the only h whose linear term equals 2*lam*h.
    """
    if j < 5:
        raise ParameterError(f"second inverse-gamma moment needs J >= 5, got {j}")
    if not (s > 0):
        raise ParameterError(f"need S > 0, got {s}")
    ex1 = 1.0 / s
    ex2 = 3.0 / s**2
    ey1 = s / j
    ey2 = s**2 / (j * (j - 2))
    lam = ex2 * ey2  # = 3/(J(J-2))
    h = ex1 * ey2 / (lam + ex1 * ey1)  # = S/(J+1)
    b = ey2 - 2 * h * ey1 + h * h - lam * h * h
    return DriftSpec(lam, b, h)


def mc_location_drift_fit(model, stream, n_draws: int = 1_000_000) -> float:
    """Monte-Carlo oracle for the drift expansion of a LocationGibbsTau.

    Estimates E[(X Y v + Y + h)^2], at the matching h of
    ``location_drift_constants(J, S)``, over one shared set of draws at each
    of 20 grid values v in [0.5, 20] (common random numbers across the
    grid; the product X^2 Y^2 is heavy-tailed, and independent per-point
    draws would need hundreds of times more samples for the same
    coefficient accuracy) and least-squares fits a quadratic in v.  Returns
    the fitted quadratic coefficient, an estimate of E[X^2]E[Y^2].
    """
    h = location_drift_constants(model.j, model.s).h
    rng = stochastics._as_generator(stream)
    grid = np.linspace(0.5, 20.0, 20)
    x, y = model.draw(rng, n_draws)
    means = np.array([np.mean((x * y * v + y + h) ** 2) for v in grid])
    return float(np.polyfit(grid, means, 2)[0])


def independent_coordinates_certificate(amplitude: float, rate: float, d: int, gap: float) -> BoundCertificate:
    """Certificate for d independent coordinates whose scalar bounds are
    amplitude * rate^n: the d-dimensional bound (d * amplitude) * rate^n * gap."""
    d = integral("dimension d", d)
    if d < 1:
        raise ParameterError(f"dimension must be >= 1, got {d}")
    for name, v in (("amplitude", amplitude), ("rate", rate)):
        if not stochastics._is_real(v):
            raise ParameterError(f"coordinate {name} must be a finite real number, got {v!r}")
    if not (0 <= rate < 1):
        raise NoContractionError(f"coordinate rate {rate} is not < 1")
    return BoundCertificate(
        c=d * amplitude,
        d=rate,
        n0=0,
        gap=gap,
        family="ar1-independent-d",
        exp_offset=1,
        notes=("bound convention D^n",),
        details={"d": d, "coordinate_amplitude": amplitude},
    )


def ar_normal_1d_certificate(model, gap: float) -> BoundCertificate:
    """Certificate for an ARNormal1D: D = |a| and C the noise density
    height 1/(sigma sqrt(2 pi)) (a single mode adds nothing)."""
    d = abs(float(model.a))
    if d >= 1.0:
        raise NoContractionError(f"D = |a| = {d:.6g} >= 1: chain does not contract")
    k = 1.0 / (model.sigma * math.sqrt(2 * math.pi))
    return BoundCertificate(
        c=k,
        d=d,
        n0=0,
        gap=gap,
        family="ar1",
        details={"noise_density_sup": k},
    )


def ar_normal_d_certificate(model, x0, x0_prime) -> BoundCertificate:
    """Certificate for an ARNormalD, X_n = A X_{n-1} + Sigma Z_n, with symmetric A.

    C = sqrt(d/(2 pi)) * ||Sigma^-1||_F * ||P||_F * ||P^-1||_F * ||x0 - x0'||_2
    and rate max_i |lambda_i|, evaluated against D^n (exp_offset=1).
    """
    a = model.a
    if np.linalg.norm(a - a.T) > 1e-12 * np.linalg.norm(a):
        raise ParameterError("A is not symmetric; only symmetric input is supported")
    evals, p = np.linalg.eigh(a)
    rate = float(np.max(np.abs(evals)))
    if rate >= 1.0:
        raise NoContractionError(f"spectral radius {rate:.6g} >= 1: chain does not contract")
    sigma_inv = _inverse("Sigma", model.sigma)
    d = a.shape[0]
    try:
        x0, x0p = np.asarray(x0, dtype=float), np.asarray(x0_prime, dtype=float)
    except (TypeError, ValueError):
        raise ParameterError(f"starts must be lists of numbers, got {x0!r} and {x0_prime!r}") from None
    for name, x in (("x0", x0), ("x0p", x0p)):
        if x.shape != (d,):
            raise ParameterError(f"start {name} must have shape ({d},) to match A, got shape {x.shape}")
    gap_norm = float(np.linalg.norm(x0 - x0p))
    # P from the symmetric eigendecomposition is orthogonal, so P^-1 = P^T
    c = float(
        math.sqrt(d / (2 * math.pi))
        * np.linalg.norm(sigma_inv)
        * np.linalg.norm(p)
        * np.linalg.norm(p.T)
        * gap_norm
    )
    return BoundCertificate(
        c=c,
        d=rate,
        n0=0,
        gap=1.0,
        family="ar-d",
        exp_offset=1,
        notes=(
            "bound convention D^n; the initial-distance norm is folded into C",
        ),
        details={"dim": d, "initial_distance": gap_norm},
    )


def nonlinear_ar_two_step_ratio(x, y):
    """Closed-form surrogate for the two-step contraction ratio of the
    sine-map chain X_n = (X_{n-1} - sin X_{n-1})/2 + Z_n.

    With h = (y - x + sin x - sin y)/4 and k = (x + y - sin y - sin x)/4:

        sqrt(4h^2 - 8 e^{-1/2} h sin(h) cos(k)
             + 2 sin^2(h) (1 + e^{-2}(cos^2 k - sin^2 k))) / (2|x - y|)

    This upper-bounds (Cauchy-Schwarz) the exact two-step expected-gap
    ratio of :func:`nonlinear_ar_exact_two_step_ratio`.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    h = 0.25 * (y - x + np.sin(x) - np.sin(y))
    k = 0.25 * (x + y - np.sin(y) - np.sin(x))
    inner = (
        4 * h * h
        - 8 * math.exp(-0.5) * h * np.sin(h) * np.cos(k)
        + 2 * np.sin(h) ** 2 * (1 + math.exp(-2) * (np.cos(k) ** 2 - np.sin(k) ** 2))
    )
    num = np.sqrt(np.maximum(inner, 0.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        out = num / (2 * np.abs(x - y))
    return out if out.ndim else float(out)


_HERMITE_NODES, _HERMITE_WEIGHTS = np.polynomial.hermite_e.hermegauss(80)
_HERMITE_WEIGHTS = _HERMITE_WEIGHTS / _HERMITE_WEIGHTS.sum()


def nonlinear_ar_exact_two_step_ratio(x, y):
    """Exact two-step expected-gap ratio E|X_2 - X_2'| / |x - y| for the
    sine-map chain under shared noise (Gauss-Hermite quadrature).

    The additive final-step noise cancels, so only the first shared draw
    matters; 80-node quadrature is exact to machine precision here.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)

    def g(t):
        return 0.5 * (t - np.sin(t))

    z = _HERMITE_NODES.reshape((-1,) + (1,) * max(x.ndim, y.ndim))
    w = _HERMITE_WEIGHTS.reshape(z.shape)
    vals = np.abs(g(g(x) + z) - g(g(y) + z))
    expect = (w * vals).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = expect / np.abs(x - y)
    return out if out.ndim else float(out)


_ZOOM_CELLS = 4  # coarse cells zoomed by nonlinear_ar_D
_NLAR_GRID = 201  # points per axis of its coarse lattice
_NLAR_HALF_RANGE = 4 * math.pi  # nonlinear_ar_D searches [-4 pi, 4 pi]^2
_NLAR_MIN_SEPARATION = 0.5  # and excludes pairs closer than this


def nonlinear_ar_D() -> float:
    """Two-step contraction factor D for the sine-map chain, as the square
    root of the sup of the closed-form ratio over [-4 pi, 4 pi]^2.

    The sup is searched on a coarse 201 x 201 lattice, and its best cells
    are then zoomed: a 41 x 41 lattice is laid over a window two coarse
    spacings wide around each cell, re-centred on its best point, and
    shrunk tenfold per step down to a half-width of about 1e-10.  Every
    zoom point lies in the box and respects the separation cutoff, and the
    coarse maximum is kept, so zooming only ever raises D (the
    conservative direction).

    The closed-form surrogate is a Cauchy-Schwarz envelope of the exact
    expected-gap ratio and inflates near the diagonal: its x -> y limit
    (~0.669) overstates the exact ratio there (~0.61).  Pairs with
    |x - y| below 0.5 are therefore excluded and the sup is taken at the
    surrogate's interior maximum (~0.662), which still dominates the exact
    ratio everywhere, grid-refines stably, and is checked against the
    quadrature oracle in the test suite.
    """
    ax = np.linspace(-_NLAR_HALF_RANGE, _NLAR_HALF_RANGE, _NLAR_GRID)

    def ratio(xs, ys):
        return np.where(np.abs(xs - ys) >= _NLAR_MIN_SEPARATION, nonlinear_ar_two_step_ratio(xs, ys), -np.inf)

    r = ratio(ax[:, None], ax[None, :])
    best = float(r.max())
    offsets = np.linspace(-1.0, 1.0, 41)
    for cell in np.argpartition(r, -_ZOOM_CELLS, axis=None)[-_ZOOM_CELLS:]:
        i, j = np.unravel_index(cell, r.shape)
        cx, cy, half = float(ax[i]), float(ax[j]), ax[1] - ax[0]
        while half > 1e-10:
            xs = np.clip(cx + half * offsets, -_NLAR_HALF_RANGE, _NLAR_HALF_RANGE)[:, None]
            ys = np.clip(cy + half * offsets, -_NLAR_HALF_RANGE, _NLAR_HALF_RANGE)[None, :]
            z = ratio(xs, ys)
            i, j = np.unravel_index(np.argmax(z), z.shape)
            best = max(best, float(z[i, j]))
            cx, cy = float(xs[i, 0]), float(ys[0, j])
            half /= 10
    return math.sqrt(best)


def nonlinear_ar_certificate(gap: float, d_squared: Optional[float] = None) -> BoundCertificate:
    """Two-iteration certificate for the sine-map chain:

        TV(n) <= (1/sqrt(2 pi)) * (D^2)^floor(n/2) * gap
    """
    if d_squared is None:
        d_squared = nonlinear_ar_D() ** 2
    if not stochastics._is_real(d_squared):
        raise ParameterError(f"two-step factor D^2 must be a finite real number, got {d_squared!r}")
    if not (0 < d_squared < 1):
        raise NoContractionError(f"two-step factor D^2 = {d_squared} is not in (0, 1)")
    return BoundCertificate(
        c=1.0 / math.sqrt(2 * math.pi),
        d=d_squared,
        n0=0,
        gap=gap,
        family="nonlinear-ar",
        exp_offset=1,
        exp_step=2,
        notes=("two-iteration contraction: exponent floor(n/2) with rate D^2",),
        details={"d": math.sqrt(d_squared)},
    )


def golden_section_max(f, lo: float, hi: float) -> float:
    """Golden-section maximization of a unimodal scalar ``f`` over
    [lo, hi]; returns the largest value seen at the two final probes."""
    invphi = (math.sqrt(5) - 1) / 2
    a, b = lo, hi
    c1 = b - invphi * (b - a)
    c2 = a + invphi * (b - a)
    f1, f2 = f(c1), f(c2)
    for _ in range(300):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = f(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = f(c1)
        if b - a < 1e-14 * max(1.0, abs(a)):
            break
    return float(max(f1, f2))


def _log_scale_density_sup(z: Dist) -> float:
    """sup_x e^x f_Z(e^x), the density height of log(Z) for Z > 0 a.s."""
    u = np.exp(np.linspace(-40.0, 12.0, 20001))
    vals = u * stochastics.density(z, u)
    i = int(np.argmax(vals))
    lo, hi = u[max(i - 1, 0)], u[min(i + 1, len(u) - 1)]
    refined = golden_section_max(lambda v: v * stochastics.density(z, v), lo, hi)
    return max(refined, float(vals[i]))


def larch_certificate(model, m: int, gap: float) -> BoundCertificate:
    """Certificate for X_n = (beta0 + beta1 X_{n-1}) Z_n (a LARCH, Z > 0 a.s.):

        C = beta1 (M+1) / (2 beta0) * sup_x e^x f_Z(e^x),   D = beta1 E|Z|.
    """
    beta0, beta1, z = model.beta0, model.beta1, model.z
    m = integral("mode count M", m)
    if m < 1:
        raise ParameterError(f"mode count M must be >= 1, got {m}")
    d = beta1 * abs_moment(z, 1)
    if d >= 1.0:
        raise NoContractionError(f"D = beta1 E|Z| = {d:.6g} >= 1: chain does not contract")
    sup = _log_scale_density_sup(z)
    return BoundCertificate(
        c=beta1 * (m + 1) / (2 * beta0) * sup,
        d=d,
        n0=0,
        gap=gap,
        family="larch",
        details={"log_noise_density_sup": sup},
    )


def asym_arch_certificate(model, gap: float, jensen: bool = True) -> BoundCertificate:
    """Certificate for X_n = sqrt((a X_{n-1} + b)^2 + c^2) Z_n (an AsymARCH):

        C = |a| / |c|,   D = |a| E|Z|  (or its Jensen relaxation
        |a| sqrt(E[Z^2]) when ``jensen`` is set, the convention the
        worked example uses; both values are recorded).
    """
    if not isinstance(jensen, bool):
        raise ParameterError(f"jensen must be true or false, got {jensen!r}")
    a, c, z = model.a, model.c, model.z
    d_exact = abs(a) * abs_moment(z, 1)
    d_jensen = abs(a) * math.sqrt(abs_moment(z, 2))
    d = d_jensen if jensen else d_exact
    if a != 0 and d >= 1.0:
        raise NoContractionError(f"D = {d:.6g} >= 1: chain does not contract")
    return BoundCertificate(
        c=abs(a) / abs(c),
        d=d,
        n0=0,
        gap=gap,
        family="asym-arch",
        notes=("D is the Jensen relaxation |a| sqrt(E[Z^2])",) if jensen else (),
        details={"d_exact": d_exact, "d_jensen": d_jensen},
    )


def garch_certificate(model, x0: float, x0_prime: float, s20: float, s20_prime: float) -> BoundCertificate:
    """Certificate for a GARCH(1,1) ``model`` with known initial values:

        TV(n) <= D^(n-1)/alpha * sqrt(beta2 |x0^2 - x0'^2| + gamma2 |s20 - s20'|)

    with D = sqrt(beta2 E[Z^2] + gamma2).  Packaged with n0 = 1:
    C = D/(alpha E|Z|) and gap the initial-condition value
    sqrt(beta2 |x0^2 - x0'^2| + gamma2 |s20 - s20'|) * E|Z|, so that
    C * D^(n-2) * gap reproduces the display above.
    """
    alpha2, beta2, gamma2, z = model.alpha2, model.beta2, model.gamma2, model.z
    if not (s20 >= 0 and s20_prime >= 0):
        raise ParameterError("initial sigma^2 values must be >= 0")
    d = math.sqrt(beta2 * abs_moment(z, 2) + gamma2)
    if d >= 1.0:
        raise NoContractionError(
            f"D = sqrt(beta2 E[Z^2] + gamma2) = {d:.6g} >= 1: chain does not contract"
        )
    e_abs_z = abs_moment(z, 1)
    alpha = math.sqrt(alpha2)
    init = math.sqrt(beta2 * abs(x0**2 - x0_prime**2) + gamma2 * abs(s20 - s20_prime))
    # identical initial conditions give gap 0: degenerate but legal
    return BoundCertificate(
        c=d / (alpha * e_abs_z),
        d=d,
        n0=1,
        gap=init * e_abs_z,
        family="garch",
        details={"coefficient": init / alpha},
    )


def certificate_to_dict(cert: BoundCertificate) -> dict:
    out = {
        "C": cert.c,
        "D": cert.d,
        "n0": cert.n0,
        "gap": cert.gap,
        "family": cert.family,
        "notes": list(cert.notes),
    }
    if cert.exp_offset or cert.exp_step != 1:
        out["exponent"] = {"offset": cert.exp_offset, "step": cert.exp_step}
    if cert.details:
        out["details"] = {k: v for k, v in cert.details.items()}
    return out
