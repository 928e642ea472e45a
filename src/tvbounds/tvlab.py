"""Histogram total-variation estimation and simulated TV curves.

The plug-in histogram estimator 0.5 * sum_bins |p_a - p_b| carries a
positive noise floor of order sum_i sqrt(p_i / (pi N)): summing absolute
per-bin noise inflates the estimate wherever the true per-bin gap is
below the counting noise.  Every estimate therefore reports, next to
its binomial standard error, the analytic null floor (the estimator's
expected value if the two laws were identical), so that soundness
comparisons "estimate <= bound" can be read against estimate-floor.
The floor is not subtracted from the reported estimate.

A Histogram stores only its occupied cells, as two sorted int64 arrays
(cells and counts), on bins anchored at 0.  One counting routine serves
binning, merging (weighted by the parts' counts) and the TV estimate's
alignment of two histograms on the union of their occupied cells: it
counts offset cell indices with np.bincount, or sorts when the span is
much wider than the input, so heavy tails and tiny widths never
allocate span-sized arrays.

TV curves are simulated with independent innovations for the two copies
(marginal laws are all TV needs); the shared-noise coupling lives in the
models module for contraction diagnostics.  Curve simulation is chunked
into one job per chunk and copy, each on its own fixed substream, and
the jobs run on threads in one process (numpy releases the GIL in the
draw, step and binning kernels).  Jobs are folded into running
per-iteration histograms in job order as they arrive, so memory is
bounded by n_max merged histogram pairs plus the jobs in flight: each
extra worker costs one copy's chunk in flight, not one interpreter.
Counts are integers, so output is byte-identical for any worker count.

Each job owns a fixed working set, allocated once when it starts and
never shared with another thread: its state, which ``models.step``
advances in place (``out=state``), and one float64 and one int64 array
of the chunk's size, into which binning divides, floors, casts and
offsets every iteration's observable.  Per iteration a job allocates
only its draws, its histograms and, in the steps that need one
(nonlinear-ar, Gibbs), one temporary, so it hands few chunk-sized
arrays back to the allocator to be faulted in again.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from . import models as models_mod
from .bounds import BoundCertificate, bound_eval
from .errors import ParameterError, SimulationError
from .models import Family
from .stochastics import NoiseStream, _is_real

__all__ = [
    "Histogram",
    "TVEstimate",
    "TVCurveRow",
    "TVCurve",
    "tv_histogram",
    "tv_from_histograms",
    "simulate_tv_curve",
]

_CHUNK_PATHS = 1 << 17
# histogram cell indices must stay well inside int64 before the cast
_MAX_CELL = 2.0**62
# above this many cells of span per value, binning sorts instead of counting
_SPAN_PER_VALUE = 8


def _cells(x: np.ndarray, bin_width: float, work=None):
    """Cell index floor(x / w) of every value, as int64, with the lowest
    and highest cell.

    ``work`` is a (float64, int64) pair of arrays of x's size: the
    division and floor run in place in the first, the cast writes the
    second, which is returned.  By default both are fresh.

    Raises ParameterError when a value is non-finite or its cell lies
    beyond +-2**62, where the int64 cast would wrap.
    """
    cells, index = work if work is not None else (np.empty(x.size), np.empty(x.size, dtype=np.int64))
    np.divide(x, bin_width, out=cells)
    np.floor(cells, out=cells)
    lo, hi = cells.min(), cells.max()
    # NaN fails both comparisons, so min/max also catch non-finite values
    if not (-_MAX_CELL < lo and hi < _MAX_CELL):
        non_finite = int(np.count_nonzero(~np.isfinite(x)))
        too_large = int(np.count_nonzero(np.isfinite(x) & ~(np.abs(cells) < _MAX_CELL)))
        raise ParameterError(
            f"{non_finite} of {x.size} values non-finite, {too_large} out of histogram "
            "range (|x| / bin_width >= 2**62)"
        )
    index[...] = cells
    return index, int(lo), int(hi)


def _tally(cells: np.ndarray, lo: int, hi: int, weights: Optional[np.ndarray] = None):
    """Sorted distinct cells and the summed weight of each (how often it
    occurs when ``weights`` is None), as fresh int64 arrays.

    The one place that chooses how to count: np.bincount on the offset
    index cells - lo, or, when the span hi - lo + 1 exceeds 8 values per
    input and a span-sized count array would outweigh the input, a sort.
    Every caller passes an int64 array of its own, which the bincount
    branch offsets in place.
    """
    if hi - lo + 1 > _SPAN_PER_VALUE * cells.size:
        if weights is None:
            return np.unique(cells, return_counts=True)
        distinct, where = np.unique(cells, return_inverse=True)
        return distinct, np.bincount(where, weights).astype(np.int64)
    cells -= lo
    counts = np.bincount(cells, weights)
    occupied = np.flatnonzero(counts != 0)  # nonzero scans a bool mask several times faster than int64
    return occupied + lo, counts[occupied].astype(np.int64, copy=False)


@dataclass(eq=False)
class Histogram:
    """Fixed-width counting histogram anchored at 0.

    Bin i covers [i*w, (i+1)*w).  Only occupied bins are stored:
    ``cells`` holds their indices i in increasing order and ``counts``
    the matching counts, both int64 arrays, so unbounded supports cost
    nothing.  Binning and merging both count through ``_tally``.
    """

    bin_width: float
    cells: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    counts: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        if not (0 < self.bin_width < math.inf):
            raise ParameterError(f"bin width must be finite and > 0, got {self.bin_width}")

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    @classmethod
    def from_samples(cls, samples, bin_width: float, work=None) -> "Histogram":
        """Histogram of ``samples``; ``work`` is the caller's own
        (float64, int64) pair of arrays of the samples' size that binning
        writes in place (see ``_cells``), fresh when None."""
        h = cls(bin_width)
        x = np.asarray(samples, dtype=float).ravel()
        if x.size:
            h.cells, h.counts = _tally(*_cells(x, bin_width, work))
        return h

    def merge(self, *others: "Histogram") -> None:
        """Add the counts of ``others``: their cells are concatenated and
        counted once by ``_tally``, weighted by their counts."""
        if any(o.bin_width != self.bin_width for o in others):
            raise ParameterError("cannot merge histograms with different grids")
        parts = [h for h in (self, *others) if h.cells.size]
        if len(parts) == 1:
            self.cells, self.counts = parts[0].cells, parts[0].counts
        elif parts:
            cells = np.concatenate([h.cells for h in parts])
            counts = np.concatenate([h.counts for h in parts])
            self.cells, self.counts = _tally(cells, int(cells.min()), int(cells.max()), counts)

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
    if ha.bin_width != hb.bin_width:
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


def tv_histogram(samples_a, samples_b, bin_width: float) -> TVEstimate:
    """Histogram TV between two equal-size sample sets."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ParameterError("sample sets must be non-empty")
    if a.size != b.size:
        raise ParameterError(f"sample sets must have equal size, got {a.size} and {b.size}")
    return tv_from_histograms(
        Histogram.from_samples(a, bin_width),
        Histogram.from_samples(b, bin_width),
    )


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


def _simulate_chunk(model, x, s2, n_max, n_paths, bin_width, stream, chunk, copy):
    """Advance one copy of one chunk of paths and histogram every iteration.

    Returns the copy's n_max per-iteration histograms.  Substream
    2 * chunk + copy pins its draws, so the result does not depend on
    which worker ran it.  The job owns its working set: the state steps
    in place and binning reuses one float64 and one int64 array, all
    allocated here once and shared with no other job.
    """
    rng = stream.substream(2 * chunk + copy).generator()
    state = model.make_state(np.full(n_paths, float(x)), None if s2 is None else np.full(n_paths, float(s2)))
    work = (np.empty(n_paths), np.empty(n_paths, dtype=np.int64))
    out = []
    for n in range(1, n_max + 1):
        models_mod.step(model, state, models_mod.draw_innovations(model, rng, size=n_paths), out=state)
        try:
            out.append(Histogram.from_samples(models_mod.observable(model, state), bin_width, work))
        except ParameterError as exc:
            start = ("x0", "x0'")[copy]
            raise SimulationError(
                f"chain diverged at iteration {n} (chunk {chunk}, start {start}): {exc}"
            ) from None
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

    Each 2**17-path chunk runs as two jobs, one per copy.  With
    ``workers`` > 1 the jobs run on a thread pool of min(workers, jobs)
    threads in this process; the result is byte-identical for any
    ``workers``.  A diverging copy raises SimulationError naming the
    iteration, chunk and start of the first failing job in job order.
    """
    if n_paths < 1:
        raise ParameterError(f"need n_paths >= 1, got {n_paths}")
    if n_max < 1:
        raise ParameterError(f"need n_max >= 1, got {n_max}")
    if model.state_ndim:
        raise ParameterError(
            "TV curves are scalar-only; validate vector chains coordinate-wise "
            "or with the exact one-dimensional formula"
        )
    # reject invalid initial states before any chunk starts
    for name, v in (("x0", x0), ("x0'", x0_prime), ("s20", s20), ("s20'", s20_prime)):
        if v is not None and not _is_real(v):
            raise ParameterError(f"start {name} must be a finite number, got {v!r}")
    model.make_state(x0, s20)
    model.make_state(x0_prime, s20_prime)

    starts = ((x0, s20), (x0_prime, s20_prime))
    jobs = [
        (chunk, copy, min(_CHUNK_PATHS, n_paths - first))
        for chunk, first in enumerate(range(0, n_paths, _CHUNK_PATHS))
        for copy in (0, 1)
    ]

    def run(job):
        chunk, copy, size = job
        return _simulate_chunk(model, *starts[copy], n_max, size, bin_width, stream, chunk, copy)

    # fold each job into running per-iteration histograms as it arrives,
    # in job order, so only n_max merged pairs and the jobs in flight are
    # held whatever n_paths is; building them checks the bin width first
    merged = [(Histogram(bin_width), Histogram(bin_width)) for _ in range(n_max)]
    pool = ThreadPoolExecutor(max_workers=min(workers, len(jobs))) if workers > 1 else None
    with pool or nullcontext():
        for (_, copy, _), hists in zip(jobs, (pool.map if pool else map)(run, jobs)):
            for pair, h in zip(merged, hists):
                pair[copy].merge(h)
            del hists  # drop it before the next job is simulated

    rows = []
    for n, (ha, hb) in enumerate(merged, start=1):
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

