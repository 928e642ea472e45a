"""Oracles the tests check the package against; no command runs them.

* :func:`nonlinear_ar_two_step_ratio`, a closed-form envelope of the
  sine-map chain's two-step contraction ratio, and
  :func:`nonlinear_ar_exact_two_step_ratio`, the exact ratio it must
  dominate; :func:`nonlinear_ar_D_search`, the lattice-and-zoom search
  for the envelope's sup, whose result ``bounds.nonlinear_ar_D`` pins.
* :func:`couple_step`, two copies of a chain advanced on one shared draw
  per iteration (the common-random-number coupling behind every
  contraction factor D), and :func:`vector_ar_couple_step`, the same for
  the vector AR chain, which the package certifies but does not simulate.
  Iteration ``it`` draws from ``stream.substream(2 * it)``, the key a
  curve job of ``tvlab`` uses for chunk ``it``, copy a, so neither may
  run beside a curve on one stream.  :func:`fresh_like` is an array (or
  GARCH pair) to step into.
* :func:`full_step`, one full two-block sweep of a Gibbs family, and
  :func:`full_sweep`, the same sweep from given draws, with
  :func:`innovations_from_full`, the reduced chain's innovations from
  those draws: the de-initialization that makes the reduced chain govern
  the full sampler.
* :func:`histogram_from_samples`, a one-copy ``tvlab.Histogram``, and
  :func:`copy_counts`, one copy's counts unpacked from a histogram.
* :func:`regression_gibbs_tv1_rate`, an upper bound on the one-step TV
  per unit of start distance of the reduced regression Gibbs chain, by
  quadrature: what the certificate's C must dominate.
"""

import math
from dataclasses import dataclass

import numpy as np

from tvbounds.errors import ParameterError
from tvbounds.models import Family, draw_innovations, step
from tvbounds.stochastics import Gamma, NoiseStream, sample
from tvbounds.tvlab import Histogram, _cells


def nonlinear_ar_two_step_ratio(x, y):
    """Closed-form surrogate for the two-step contraction ratio of the
    sine-map chain X_n = (X_{n-1} - sin X_{n-1})/2 + Z_n.

    With h = (y - x + sin x - sin y)/4 and k = (x + y - sin y - sin x)/4:

        sqrt(4h^2 - 8 e^{-1/2} h sin(h) cos(k)
             + 2 sin^2(h) (1 + e^{-2}(cos^2 k - sin^2 k))) / (2|x - y|)

    This upper-bounds (Cauchy-Schwarz) the exact two-step expected-gap
    ratio, :func:`nonlinear_ar_exact_two_step_ratio`.
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


_ZOOM_CELLS = 4  # coarse cells zoomed by nonlinear_ar_D_search
_NLAR_GRID = 201  # points per axis of its coarse lattice
_NLAR_HALF_RANGE = 4 * math.pi  # nonlinear_ar_D_search searches [-4 pi, 4 pi]^2
_NLAR_MIN_SEPARATION = 0.5  # and excludes pairs closer than this


def nonlinear_ar_D_search() -> float:
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
    ratio everywhere and grid-refines stably.
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


def fresh_like(state):
    """An unwritten state of the shape of ``state``, for ``step`` to write into."""
    return type(state)(*map(np.empty_like, state)) if isinstance(state, tuple) else np.empty_like(state)


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
    noise = draw_innovations(model, rng, np.size(model.observable(cs.x)))
    return CoupledState(
        x=step(model, cs.x, noise, fresh_like(cs.x)),
        x_prime=step(model, cs.x_prime, noise, fresh_like(cs.x_prime)),
        iteration=cs.iteration + 1,
    )


def vector_ar_couple_step(model, cs: CoupledState, stream: NoiseStream) -> CoupledState:
    """:func:`couple_step` for an ``ARNormalD``: both copies take
    X_n = A X_{n-1} + Sigma Z_n on one shared standard normal vector Z_n."""
    z = stream.substream(2 * cs.iteration).generator().standard_normal(model.a.shape[0])
    shock = model.sigma @ z
    return CoupledState(model.a @ cs.x + shock, model.a @ cs.x_prime + shock, cs.iteration + 1)


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
    sweep from the array of variances ``state``, drawing w and then g from
    the start of ``stream``.

    Returns ``(reduced, full)``: the reduced chain value (tau^{-1} or
    sigma^2) and the full Gibbs draw it de-initializes, (mu, tau^{-1})
    for the location model, (beta_1, sigma^2) for the regression model
    (the first regression coordinate; the remaining coordinates are
    exchangeable copies of the same construction).

    The reduced value coincides exactly with ``model.step`` fed the
    innovations from :func:`innovations_from_full`.
    """
    rng = stream.generator()
    w = rng.standard_normal(size=(len(state), model.p))
    g = sample(Gamma((model.k + model.p) / 2, 1.0), rng, len(state))
    return full_sweep(model, state, w, g, beta_tilde1, a_inv_11)


def histogram_from_samples(samples, bin_width: float) -> Histogram:
    """Histogram of ``samples``, held as copy a."""
    h = Histogram(bin_width)
    x = np.asarray(samples, dtype=float).ravel()
    if x.size:
        h.fold(*_cells(x, bin_width))
    return h


def copy_counts(h: Histogram, copy: int) -> np.ndarray:
    """Copy ``copy``'s count in each stored cell of ``h``, as int64."""
    return h.counts >> 32 if copy else h.counts & 0xFFFFFFFF


def regression_gibbs_tv1_rate(k: int, p: int, c_stat: float, r: float, delta: float) -> float:
    """E_X[TV((r' | X, r), (r' | X, r + delta))] / delta for the reduced
    regression Gibbs chain r' = X Y r + Y with X ~ Gamma(p/2, C/2) and
    Y ~ InverseGamma((k+p)/2, C/2), written out here rather than read from
    the model.  TV is convex, so the TV of the two one-step laws (mixtures
    over X) is at most this mean, and this bounds TV_1(r, r + delta)/delta
    from above; a sound certificate has C at least its sup over r and delta.

    Given X, 1/r' = (1/Y)/(X r + 1) is Gamma(a, (C/2)(X r + 1)) with
    a = (k+p)/2, so the two laws are gamma laws of one shape whose rates
    are in the ratio rho = 1 + e, e = X delta/(X r + 1).  Their densities
    cross once, where the smaller rate times the crossing point is
    t = a log(rho)/(rho - 1), so TV = P(a, rho t) - P(a, t) with P the
    regularized lower incomplete gamma.  The mean over X is a quadrature
    over its quantiles q in (0, 1).
    """
    from scipy import integrate, special

    a = (k + p) / 2

    def tv_given(q):
        x = special.gammaincinv(p / 2, q) * 2 / c_stat
        e = x * delta / (x * r + 1)
        t = a * math.log1p(e) / e
        return special.gammainc(a, (1 + e) * t) - special.gammainc(a, t)

    return integrate.quad(tv_given, 0, 1)[0] / delta
