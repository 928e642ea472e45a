"""Oracles the tests check the package against; no command runs them.

* :func:`nonlinear_ar_exact_two_step_ratio`, the sine-map chain's exact
  two-step expected-gap ratio, which the closed-form surrogate
  ``bounds.nonlinear_ar_two_step_ratio`` must dominate.
* :func:`couple_step`, two copies of a chain advanced on one shared draw
  per iteration (the common-random-number coupling behind every
  contraction factor D).  Its iteration ``it`` draws from
  ``stream.substream(2 * it)``, the key a curve job of ``tvlab`` uses for
  chunk ``it``, copy a, so it must not run beside a curve on one stream.
* :func:`full_step`, one full two-block sweep of a Gibbs family, and
  :func:`full_sweep`, the same sweep from given draws, with
  :func:`innovations_from_full`, the reduced chain's innovations from
  those draws: the de-initialization that makes the reduced chain govern
  the full sampler.
* :func:`histogram_from_samples`, a one-copy ``tvlab.Histogram``.
"""

import math
from dataclasses import dataclass

import numpy as np

from tvbounds.errors import ParameterError
from tvbounds.models import Family, draw_innovations, step
from tvbounds.stochastics import Gamma, NoiseStream, _as_generator, sample
from tvbounds.tvlab import Histogram, _cells


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

    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    z = nodes.reshape((-1,) + (1,) * max(x.ndim, y.ndim))
    w = (weights / weights.sum()).reshape(z.shape)
    vals = np.abs(g(g(x) + z) - g(g(y) + z))
    expect = (w * vals).sum(axis=0)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = expect / np.abs(x - y)
    return out if out.ndim else float(out)


def paths(model: Family, state):
    """Paths held by ``state``; None for a single path."""
    arr = np.asarray(model.observable(state))
    return None if arr.ndim == model.state_ndim else arr.shape[0]


@dataclass
class CoupledState:
    """Two chain copies advanced in lockstep."""

    x: object
    x_prime: object
    iteration: int = 0


def couple_step(model: Family, cs: CoupledState, stream: NoiseStream) -> CoupledState:
    """Advance both copies one iteration on one shared innovation draw
    (the common-random-number coupling).

    Iteration ``it`` draws from ``stream.substream(2 * it)``, so
    trajectories are a pure function of the stream's key and the initial
    states.
    """
    rng = stream.substream(2 * cs.iteration).generator()
    noise = draw_innovations(model, rng, size=paths(model, cs.x))
    return CoupledState(
        x=step(model, cs.x, noise),
        x_prime=step(model, cs.x_prime, noise),
        iteration=cs.iteration + 1,
    )


def innovations_from_full(model, w, g):
    """The reduced chain's (X, Y) from the full sweep's draws w and g."""
    q = np.sum(np.asarray(w) ** 2, axis=-1)
    return q / model.c_stat, model.c_stat / (2 * g)


def full_sweep(model, state, w, g, beta_tilde1=0.0, a_inv_11=1.0):
    """One full Gibbs sweep of the Gibbs family ``model`` from the variance ``state``:

        beta_1  = beta_tilde1 + sigma sqrt((A^-1)_11) w_1
        reduced = (sigma^2 ||w||^2 + C) / (2 g)

    with w a standard normal p-vector (trailing axis of length p) and
    g ~ Gamma((k+p)/2, 1).  ``beta_tilde1`` and ``a_inv_11`` are the first
    posterior-mean coordinate and the (1,1) entry of the inverse Gram
    matrix; the location chain's are y_bar and 1/J.  Returns
    (reduced, (beta_1, reduced)); for the location chain beta_1 is mu and
    w = 0 collapses it onto y_bar.
    """
    model.make_state(state)  # StateError unless every state is positive
    w = np.asarray(w, dtype=float)
    if w.shape[-1:] != (model.p,):
        raise ParameterError(f"w must have a trailing axis of length p = {model.p}, got shape {w.shape}")
    sigma = np.sqrt(state)
    beta1 = beta_tilde1 + sigma * math.sqrt(a_inv_11) * w[..., 0]
    quad = state * np.sum(w**2, axis=-1)
    reduced = (quad + model.c_stat) / (2 * g)
    return reduced, (beta1, reduced)


def full_step(model, state, stream, beta_tilde1=0.0, a_inv_11=1.0):
    """Advance the Gibbs family ``model`` through its full two-block
    sweep, drawing w and then g from ``stream`` (a NoiseStream or numpy
    Generator).

    Returns ``(reduced, full)``: the reduced chain value (tau^{-1} or
    sigma^2) and the full Gibbs draw it de-initializes, (mu, tau^{-1})
    for the location model, (beta_1, sigma^2) for the regression model
    (the first regression coordinate; the remaining coordinates are
    exchangeable copies of the same construction).

    The reduced value coincides exactly with ``model.step`` fed the
    innovations from :func:`innovations_from_full`.
    """
    rng = _as_generator(stream)
    size = paths(model, state)
    w = rng.standard_normal(size=(model.p,) if size is None else (size, model.p))
    g = sample(Gamma((model.k + model.p) / 2, 1.0), rng, size=size)
    return full_sweep(model, state, w, g, beta_tilde1, a_inv_11)


def histogram_from_samples(samples, bin_width: float) -> Histogram:
    """Histogram of ``samples``, held as copy a."""
    h = Histogram(bin_width)
    x = np.asarray(samples, dtype=float).ravel()
    if x.size:
        h.fold(*_cells(x, bin_width))
    return h
