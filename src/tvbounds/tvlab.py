"""Total variation estimation, exact evaluation, and integral checks.

The plug-in histogram estimator 0.5 * sum_bins |p_a - p_b| carries a
positive noise floor of order sum_i sqrt(p_i / (pi N)): summing absolute
per-bin noise inflates the estimate wherever the true per-bin gap is
below the counting noise.  Every estimate therefore reports, next to
its binomial standard error, the analytic null floor (the estimator's
expected value if the two laws were identical), so that soundness
comparisons "estimate <= bound" can be read against estimate-floor.
The floor is not subtracted from the reported estimate.

A Histogram stores only its occupied cells, as two sorted int64 arrays
(cells and counts).  Binning counts offset cell indices with
np.bincount, merging re-counts the concatenated cells of all parts, and
the TV estimate aligns two histograms on the union of their occupied
cells; spans much wider than the input fall back to sorting, so heavy
tails and tiny widths never allocate span-sized arrays.

TV curves are simulated with independent innovations for the two copies
(marginal laws are all TV needs); the shared-noise coupling lives in the
models module for contraction diagnostics.  Curve simulation is chunked,
and each chunk owns a fixed substream, so results are byte-identical
for any worker count.
"""

from __future__ import annotations

import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import models as models_mod
from .bounds import BoundCertificate, bound_eval
from .errors import DomainError, ParameterError, PrecisionError, SimulationError
from .models import Family
from .stochastics import NoiseStream

__all__ = [
    "Histogram",
    "TVEstimate",
    "TVCurveRow",
    "TVCurve",
    "tv_histogram",
    "tv_from_histograms",
    "tv_exact_ar_normal",
    "simulate_tv_curve",
    "shifted_l1",
]

_CHUNK_PATHS = 1 << 17
# histogram cell indices must stay well inside int64 before the cast
_MAX_CELL = 2.0**62
# above this many cells of span per value, binning sorts instead of counting
_SPAN_PER_VALUE = 8


def _cells(x: np.ndarray, bin_width: float, origin: float):
    """Cell index floor((x - origin) / w) of every value, as int64, with
    the lowest and highest cell.

    Raises ParameterError when a value is non-finite or its cell lies
    beyond +-2**62, where the int64 cast would wrap.
    """
    cells = (x - origin) / bin_width if origin else x / bin_width
    np.floor(cells, out=cells)
    lo, hi = cells.min(), cells.max()
    # NaN fails both comparisons, so min/max also catch non-finite values
    if not (-_MAX_CELL < lo and hi < _MAX_CELL):
        non_finite = int(np.count_nonzero(~np.isfinite(x)))
        too_large = int(np.count_nonzero(np.isfinite(x) & ~(np.abs(cells) < _MAX_CELL)))
        raise ParameterError(
            f"{non_finite} of {x.size} values non-finite, {too_large} out of histogram "
            "range (|x - origin| / bin_width >= 2**62)"
        )
    return cells.astype(np.int64), int(lo), int(hi)


def _tally(cells: np.ndarray, lo: int, hi: int, weights=None):
    """Sorted distinct cells and how often each occurs (summing
    ``weights`` instead of counting 1s when given), as int64 arrays.

    Counts by np.bincount on the offset index cells - lo; when the span
    hi - lo + 1 exceeds 8 values per input, the span-sized count array
    would outweigh the input, so np.unique sorts instead.
    """
    if hi - lo + 1 > _SPAN_PER_VALUE * cells.size:
        if weights is None:
            return np.unique(cells, return_counts=True)
        uniq, inv = np.unique(cells, return_inverse=True)
        return uniq, np.bincount(inv, weights=weights).astype(np.int64)
    counts = np.bincount(cells - lo, weights=weights)
    occupied = np.flatnonzero(counts)
    return occupied + lo, counts[occupied].astype(np.int64, copy=False)


@dataclass(eq=False)
class Histogram:
    """Fixed-width counting histogram anchored at ``origin`` (default 0).

    Bin i covers [origin + i*w, origin + (i+1)*w).  Only occupied bins
    are stored: ``cells`` holds their indices i in increasing order and
    ``counts`` the matching counts, both int64 arrays, so unbounded
    supports cost nothing.
    """

    bin_width: float
    origin: float = 0.0
    cells: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        if not (self.bin_width > 0):
            raise ParameterError(f"bin width must be > 0, got {self.bin_width}")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_samples(cls, samples, bin_width: float, origin: float = 0.0) -> "Histogram":
        h = cls(bin_width, origin)
        h.add(samples)
        return h

    def add(self, samples) -> None:
        x = np.asarray(samples, dtype=float).ravel()
        if x.size == 0:
            return
        cells, lo, hi = _cells(x, self.bin_width, self.origin)
        self.merge(Histogram(self.bin_width, self.origin, *_tally(cells, lo, hi)))

    def merge(self, *others: "Histogram") -> None:
        """Add the counts of ``others`` (one concatenation, one re-count)."""
        if any(o.bin_width != self.bin_width or o.origin != self.origin for o in others):
            raise ParameterError("cannot merge histograms with different grids")
        parts = [h for h in (self, *others) if h.cells.size]
        if len(parts) == 1:
            self.cells, self.counts = parts[0].cells, parts[0].counts
        elif parts:
            cells = np.concatenate([h.cells for h in parts])
            weights = np.concatenate([h.counts for h in parts])
            self.cells, self.counts = _tally(cells, int(cells.min()), int(cells.max()), weights)

    def density_sup(self) -> float:
        """Plug-in estimate of the density maximum, max_i p_i / w."""
        if self.cells.size == 0:
            return 0.0
        return int(self.counts.max()) / (self.total * self.bin_width)


class TVEstimate(NamedTuple):
    estimate: float
    mc_se: float
    noise_floor: float


def tv_from_histograms(ha: Histogram, hb: Histogram) -> TVEstimate:
    """Plug-in TV between two histograms on the same grid.

    mc_se propagates per-bin binomial variance (with add-half smoothing
    so that degenerate tiny samples report a large, not zero, error);
    noise_floor is the expected value of the statistic under identical
    laws (normal approximation with pooled per-bin probabilities).
    """
    if ha.bin_width != hb.bin_width or ha.origin != hb.origin:
        raise ParameterError("histograms must share one bin grid")
    na, nb = ha.total, hb.total
    if na == 0 or nb == 0:
        raise ParameterError("cannot estimate TV from an empty histogram")
    # align on the sorted union of occupied cells: no cell empty in both
    both = np.concatenate([ha.cells, hb.cells])
    cells, _ = _tally(both, int(both.min()), int(both.max()))
    ca = np.zeros(cells.size)
    cb = np.zeros(cells.size)
    ca[np.searchsorted(cells, ha.cells)] = ha.counts
    cb[np.searchsorted(cells, hb.cells)] = hb.counts
    pa, pb = ca / na, cb / nb
    est = 0.5 * float(np.abs(pa - pb).sum())
    sa, sb = (ca + 0.5) / (na + 1), (cb + 0.5) / (nb + 1)
    var_diff = sa * (1 - sa) / na + sb * (1 - sb) / nb
    se = 0.5 * math.sqrt(float(var_diff.sum()))
    pooled = (ca + cb) / (na + nb)
    null_var = pooled * (1 - pooled) * (1.0 / na + 1.0 / nb)
    floor = 0.5 * math.sqrt(2 / math.pi) * float(np.sqrt(null_var).sum())
    return TVEstimate(est, se, floor)


def tv_histogram(samples_a, samples_b, bin_width: float, origin: float = 0.0) -> TVEstimate:
    """Histogram TV between two equal-size sample sets."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ParameterError("sample sets must be non-empty")
    if a.size != b.size:
        raise ParameterError(f"sample sets must have equal size, got {a.size} and {b.size}")
    return tv_from_histograms(
        Histogram.from_samples(a, bin_width, origin),
        Histogram.from_samples(b, bin_width, origin),
    )


def tv_exact_ar_normal(x0: float, x0_prime: float, n: int) -> float:
    """Exact TV at iteration n between two copies of
    X_n = X_{n-1}/2 + sqrt(3/4) Z_n started at known points:

        1 - 2 Phi(-|x0 - x0'| / (2^{n+1} sqrt(1 - 4^{-n})))
    """
    if n < 1:
        raise DomainError(f"exact TV needs n >= 1, got {n}")
    delta = abs(x0 - x0_prime)
    if delta == 0.0:
        return 0.0
    scale = 2.0 ** (n + 1) * math.sqrt(1.0 - 0.25**n)
    return 1.0 - math.erfc(delta / (scale * math.sqrt(2.0)))


@dataclass
class TVCurveRow:
    n: int
    bound: Optional[float]
    bound_clamped: Optional[float]
    tv_sim: Optional[float]
    tv_exact: Optional[float]
    mc_se: Optional[float]
    noise_floor: Optional[float] = None
    density_sup: Optional[float] = None


@dataclass
class TVCurve:
    rows: list

    CSV_HEADER = "n,bound,bound_clamped,tv_sim,tv_exact,mc_se"

    def to_csv(self) -> str:
        """CSV form: absent values empty, floats at 9 significant digits."""

        def fmt(v):
            return "" if v is None else f"{v:.9g}"

        lines = [self.CSV_HEADER]
        for r in self.rows:
            lines.append(
                ",".join(
                    [str(r.n), fmt(r.bound), fmt(r.bound_clamped), fmt(r.tv_sim), fmt(r.tv_exact), fmt(r.mc_se)]
                )
            )
        return "\n".join(lines) + "\n"


def _simulate_chunk(args):
    """Advance one chunk of coupled paths and histogram every iteration.

    Returns per-iteration histogram pairs for both copies; the chunk
    index pins the substream, making the result independent of which
    worker ran it.
    """
    (model, x0, x0p, s20, s20p, n_max, n_paths, bin_width, stream, chunk_index) = args
    rng_a = stream.substream(2 * chunk_index).generator()
    rng_b = stream.substream(2 * chunk_index + 1).generator()
    ones = np.ones(n_paths)

    def broadcast_state(x, s2):
        return model.make_state(float(x) * ones, None if s2 is None else float(s2) * ones)

    def histogram(state, n):
        h = Histogram(bin_width)
        try:
            h.add(models_mod.observable(model, state))
        except ParameterError as exc:
            raise SimulationError(f"chain diverged at iteration {n} (chunk {chunk_index}): {exc}") from None
        return h

    state_a = broadcast_state(x0, s20)
    state_b = broadcast_state(x0p, s20p)
    out = []
    for n in range(1, n_max + 1):
        state_a = models_mod.step(model, state_a, models_mod.draw_innovations(model, rng_a, size=n_paths))
        state_b = models_mod.step(model, state_b, models_mod.draw_innovations(model, rng_b, size=n_paths))
        out.append((histogram(state_a, n), histogram(state_b, n)))
    return out


def simulate_tv_curve(
    model: Family,
    x0,
    x0_prime,
    n_max: int,
    n_paths: int,
    bin_width: float,
    stream: NoiseStream,
    certificate: Optional[BoundCertificate] = None,
    workers: int = 1,
    s20: Optional[float] = None,
    s20_prime: Optional[float] = None,
) -> TVCurve:
    """Simulated TV trajectory for two copies started at known points.

    Both copies use independent innovations throughout.  When a
    certificate is supplied its bound (raw and clamped) is attached for
    every n > n0.  The exact TV column is filled wherever the family
    declares a closed form (``model.exact_tv``).
    """
    if n_paths < 1:
        raise ParameterError(f"need n_paths >= 1, got {n_paths}")
    if n_max < 1:
        raise ParameterError(f"need n_max >= 1, got {n_max}")
    if not (bin_width > 0):
        raise ParameterError(f"bin width must be > 0, got {bin_width}")
    if model.state_ndim:
        raise ParameterError(
            "TV curves are scalar-only; validate vector chains coordinate-wise "
            "or with the exact one-dimensional formula"
        )
    # reject invalid initial states before any chunk starts
    for name, v in (("x0", x0), ("x0'", x0_prime), ("s20", s20), ("s20'", s20_prime)):
        if v is not None and not (isinstance(v, numbers.Real) and math.isfinite(v)):
            raise ParameterError(f"start {name} must be a finite number, got {v!r}")
    model.make_state(x0, s20)
    model.make_state(x0_prime, s20_prime)

    chunk_sizes = []
    remaining = n_paths
    while remaining > 0:
        take = min(_CHUNK_PATHS, remaining)
        chunk_sizes.append(take)
        remaining -= take
    jobs = [
        (model, x0, x0_prime, s20, s20_prime, n_max, size, bin_width, stream, i)
        for i, size in enumerate(chunk_sizes)
    ]
    if workers > 1 and len(jobs) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_simulate_chunk, jobs))
    else:
        results = [_simulate_chunk(j) for j in jobs]

    rows = []
    for n_i in range(n_max):
        n = n_i + 1
        ha, hb = Histogram(bin_width), Histogram(bin_width)
        ha.merge(*(chunk[n_i][0] for chunk in results))
        hb.merge(*(chunk[n_i][1] for chunk in results))
        est = tv_from_histograms(ha, hb)
        bound = clamped = None
        if certificate is not None and n > certificate.n0:
            bv = bound_eval(certificate, n)
            bound, clamped = bv.raw, bv.clamped
        exact = model.exact_tv(float(x0), float(x0_prime), n)
        rows.append(
            TVCurveRow(
                n=n,
                bound=bound,
                bound_clamped=clamped,
                tv_sim=est.estimate,
                tv_exact=exact,
                mc_se=est.mc_se,
                noise_floor=est.noise_floor,
                density_sup=max(ha.density_sup(), hb.density_sup()),
            )
        )
    return TVCurve(rows)


def shifted_l1(
    density: Callable,
    delta: float,
    quadrature_step: float = 1e-3,
    tol: float = 1e-6,
    initial_half_range: float = 16.0,
) -> float:
    """Integral of |f(x + delta) - f(x)| dx by step-halving trapezoid
    quadrature with window expansion.

    The window grows (doubling) until the shifted difference is
    negligible at the ends and the added tail mass is below tol/10; the
    step then halves until two successive refinements agree within tol.
    Requested accuracy unreachable within the refinement budget raises
    PrecisionError.
    """
    if delta < 0:
        raise ParameterError(f"shift must be >= 0, got {delta}")
    if delta == 0.0:
        return 0.0

    def h(x):
        return np.abs(np.asarray(density(x + delta), dtype=float) - np.asarray(density(x), dtype=float))

    def trapz(lo, hi, step):
        m = max(int(math.ceil((hi - lo) / step)), 8)
        xs = np.linspace(lo, hi, m + 1)
        ys = h(xs)
        if not np.all(np.isfinite(ys)):
            raise PrecisionError("integrand is not finite on the quadrature window")
        return float(np.trapezoid(ys, xs))

    lo, hi = -initial_half_range, initial_half_range + delta
    step = max(quadrature_step, 1e-6)
    total = trapz(lo, hi, step)
    for _ in range(24):
        left = trapz(2 * lo, lo, step)
        right = trapz(hi, 2 * hi, step)
        tail = left + right
        lo, hi = 2 * lo, 2 * hi
        total += tail
        if tail < tol / 10:
            break
    else:
        raise PrecisionError("shifted-density integral did not localize; window kept growing")
    for _ in range(16):
        step /= 2
        refined = trapz(lo, hi, step)
        if abs(refined - total) < tol / 2:
            return refined
        total = refined
    raise PrecisionError("trapezoid refinement did not converge to the requested accuracy")
