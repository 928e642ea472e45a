"""Oracles the tests check the package against; no command runs them.

* :func:`nonlinear_ar_exact_two_step_ratio`, the sine-map chain's exact
  two-step expected-gap ratio, which the closed-form surrogate
  ``bounds.nonlinear_ar_two_step_ratio`` must dominate.
* :func:`couple_step`, two copies of a chain advanced on one shared draw
  per iteration (the common-random-number coupling behind every
  contraction factor D).  Its iteration ``it`` draws from
  ``stream.substream(2 * it)``, the key a curve job of ``tvlab`` uses for
  chunk ``it``, copy a, so it must not run beside a curve on one stream.
"""

from dataclasses import dataclass

import numpy as np

from tvbounds.models import Family, draw_innovations, step
from tvbounds.stochastics import NoiseStream


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
    noise = draw_innovations(model, rng, size=model.paths(cs.x))
    return CoupledState(
        x=step(model, cs.x, noise),
        x_prime=step(model, cs.x_prime, noise),
        iteration=cs.iteration + 1,
    )
