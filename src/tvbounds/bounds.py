"""Geometric total-variation bound certificates.

A certificate packages the tuple (C, D, n0, gap) so that

    TV(n)  <=  C * D^(n - n0 - 1) * gap        for n > n0,

where D in (0, 1) is the per-iteration contraction factor of the
shared-noise coupling, C the coalescing constant, and gap the expected
distance between the two copies at iteration n0.  Two exponent
conventions appear among the covered families and are encoded on the
certificate rather than folded into C:

* ``exp_offset=1`` evaluates C * D^(n - n0) (the vector autoregressive
  and independent-coordinates bounds are stated against D^n),
* ``exp_step=2`` halves the exponent, C * D^floor(n/2), for the
  two-iteration contraction of the sine-map chain.

Raw bound values may exceed 1; evaluation reports both the raw value
and the value clamped into [0, 1].

Each family, chain or not, writes its own C and D, in the
``certificate`` method of its ``models`` class.  This module holds what
no family owns: the certificate algebra, the inverse-gamma mode height,
the location chain's drift constants and the sine-map chain's pinned
two-step rate :func:`nonlinear_ar_D`, all in closed form.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from ._lazy import lazy_import
from .errors import DomainError, NoContractionError, ParameterError
from .stochastics import InverseGamma, Record, finite, finite_nonnegative, integral

np = lazy_import("numpy")

__all__ = [
    "BoundCertificate",
    "BoundValue",
    "DriftSpec",
    "bound_eval",
    "iterations_to_epsilon",
    "inverse_gamma_mode_height",
    "drift_expected_distance",
    "location_drift_constants",
    "nonlinear_ar_D",
    "certificate_to_dict",
]


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


def _singular_values(name: str, a: np.ndarray) -> np.ndarray:
    """Singular values of the square float matrix ``a``, largest first, whose
    condition number s[0] / s[-1] must be at most 1e12 (inf when s[-1] is 0
    or NaN, as ``np.linalg.cond`` reports it)."""
    try:
        s = np.linalg.svd(a, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ParameterError(f"{name} inversion failed: {exc}") from None
    with np.errstate(over="ignore"):  # a tiny s[-1] overflows the ratio to inf, which fails below
        cond = s[0] / s[-1] if s[-1] > 0 else np.inf
    if not cond <= 1e12:
        raise ParameterError(f"{name} is singular or ill-conditioned (condition {cond:.3e})")
    return s


def _inverse(name: str, a: np.ndarray) -> np.ndarray:
    """Inverse of the square float matrix ``a``, whose condition number must be at most 1e12."""
    _singular_values(name, a)
    return np.linalg.inv(a)


class BoundValue(NamedTuple):
    raw: float
    clamped: float


class BoundCertificate(Record):
    """The computable bound C * D^exponent(n) * gap.  Its check that D lies
    in [0, 1) is the one contraction check; the family certificates leave it here.

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
    details: dict = {}
    # C = 0 / D = 0 are degenerate but legal (immediate coupling)
    domains = {"c": finite_nonnegative, "d": finite, "n0": integral, "gap": finite_nonnegative,
               "exp_offset": integral, "exp_step": integral}

    def __post_init__(self):
        object.__setattr__(self, "details", dict(self.details))  # no two certificates share the default {}
        if not (0 <= self.d < 1):
            raise NoContractionError(
                f"D = {self.d:.6g} is not in [0, 1): {self.family or 'the'} chain does not contract")
        if self.n0 < 0:
            raise ParameterError(f"n0 must be >= 0, got {self.n0}")
        if self.exp_step < 1:
            raise ParameterError(f"exp_step must be >= 1, got {self.exp_step}")
        if self.exp_offset < 0:
            raise ParameterError(f"exp_offset must be >= 0, got {self.exp_offset}")

    def exponent(self, n: int) -> int:
        e = n - self.n0 - 1 + self.exp_offset
        return e // self.exp_step if self.exp_step > 1 else e


def bound_eval(cert: BoundCertificate, n: int) -> BoundValue:
    """Evaluate the certificate at iteration n > n0."""
    n = integral("n", n)
    if n <= cert.n0:
        raise DomainError(f"bound is defined for n > n0 = {cert.n0}, got n = {n}")
    raw = cert.c * cert.d ** cert.exponent(n) * cert.gap
    return BoundValue(raw, min(1.0, raw))


def iterations_to_epsilon(cert: BoundCertificate, eps: float) -> int:
    """Smallest n > n0 with bound_eval(n).raw < eps (finite since D < 1), found by
    doubling a step from n0 + 1, then bisecting: the bound does not rise with n."""
    if not (0 < eps < 1):
        raise ParameterError(f"epsilon must lie in (0, 1), got {eps}")
    lo, step = cert.n0, 1  # no n in (n0, lo] has a bound below eps
    while bound_eval(cert, lo + step).raw >= eps:
        lo, step = lo + step, 2 * step
    hi = lo + step
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (lo, mid) if bound_eval(cert, mid).raw < eps else (mid, hi)
    return hi


def inverse_gamma_mode_height(alpha: float, beta: float) -> float:
    """Density of InverseGamma(alpha, beta) at its mode m = beta/(alpha+1),

        beta^alpha / Gamma(alpha) * m^-(alpha+1) * e^(-beta/m),

    evaluated in log space with ``math`` alone; safe for shapes in the hundreds.
    """
    InverseGamma(alpha, beta)  # checks the shape and rate
    mode = beta / (alpha + 1)
    return math.exp(alpha * math.log(beta) - (alpha + 1) * math.log(mode) - beta / mode - math.lgamma(alpha))


class DriftSpec(Record):
    """Drift condition E[V(X_n) | X_{n-1}] <= lam*V(X_{n-1}) + b for V(x) = (x+h)^2."""

    lam: float
    b: float
    h: float
    domains = {"b": finite_nonnegative}

    def __post_init__(self):
        if not (0 < self.lam < 1):
            raise ParameterError(f"drift lambda must lie in (0, 1), got {self.lam}")


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


_NONLINEAR_AR_D = 0.813929960085302  # 0x1.a0bb6d7f9a172p-1


def nonlinear_ar_D() -> float:
    """Two-step contraction factor D for the sine-map chain
    X_n = (X_{n-1} - sin X_{n-1})/2 + Z_n: the square root of the sup of a
    closed-form Cauchy-Schwarz envelope of the exact two-step expected-gap
    ratio, over [-4 pi, 4 pi]^2 with pairs closer than 0.5 excluded.

    D has no inputs, so it is a pinned constant.  The envelope, the search
    that found its sup and the exact quadrature ratio it dominates live in
    ``tests/oracles.py``; the test suite checks that the search reproduces
    this value and that D^2 dominates the exact ratio on a lattice.
    """
    return _NONLINEAR_AR_D


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
