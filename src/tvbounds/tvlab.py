"""Histogram total-variation estimation and simulated TV curves.

The plug-in histogram estimator 0.5 * sum_bins |p_a - p_b| carries a
positive noise floor of order sum_i sqrt(p_i / (pi N)): summing absolute
per-bin noise inflates the estimate wherever the true per-bin gap is
below the counting noise.  Every estimate therefore reports, next to
its binomial standard error, the analytic null floor (the estimator's
expected value if the two laws were identical), so that soundness
comparisons "estimate <= bound" can be read against estimate-floor.
The floor is not subtracted from the reported estimate.  Each estimate
also reports ``density_sup``, the larger of the two copies' plug-in
density maxima max_i p_i / w; soundness checks add a binning allowance
of 2 w density_sup to the bound.

A Histogram holds two samples, copies a and b, on one sorted int64 list
of the cells either occupies, anchored at 0, with one int64 count per
cell that packs copy a's count in its low 32 bits and copy b's in its
high 32 bits.  A stored cell may be empty in one copy, and each copy
holds fewer than 2**31 values, so neither half carries into the other.
One counting routine serves binning and folding: it counts offset cell
indices with np.bincount over the union span of its inputs, shifts them
into the copy's half and adds the counts already tallied, or sorts when
that span is much wider than the input, so heavy tails and tiny widths
never allocate span-sized arrays.

TV curves are simulated with independent innovations for the two copies
(marginal laws are all TV needs); the shared-noise coupling is a test
oracle of the contraction factors.  Curve simulation is chunked into one
job per chunk and copy: job k runs copy k % 2 of chunk k // 2 on its own
fixed substream k, and the jobs run on threads in one process (numpy
releases the GIL in the draw, step and binning kernels).  Each job folds
every iteration into its copy's half of the curve's running histogram of
that iteration as soon as it is binned, under one per-curve lock, and
keeps no histogram of its own.  Memory is therefore bounded by the n_max
running histograms plus each job in flight's fixed working set (below),
whatever n_paths is: each extra worker costs one working set, not one
interpreter.  Fold order is free: a fold adds integer counts, which is
exact and commutative, so the histograms, and the output, are
byte-identical whichever job folds first and for any worker count.  Once
a job diverges, jobs later in job order stop at their next iteration.

Each job owns a fixed working set, allocated once when it starts and
never shared with another thread: its state, which ``models.step``
advances in place (``out=state``), and its draws, one float64 array of
the chunk's size (two for the Gibbs families), which every iteration's
innovations fill in place (``out=``).  Once ``step`` has consumed the
draws, binning divides and floors every iteration's observable in the
spent draw array, then casts and offsets it in place through an int64
view of the same memory.  Per iteration a job allocates only the count
array of its fold and, in the steps that need one (nonlinear-ar, Gibbs),
one temporary, so it hands few chunk-sized arrays back to the allocator
to be faulted in again.
"""

from __future__ import annotations

import math
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from typing import NamedTuple, Optional

# a plain import, not _lazy's first-use stub: the stub's load takes no lock, and
# an import statement finds the stub and loads it on the importing thread, so
# no curve worker thread loads numpy
import numpy as np

from . import models as models_mod
from .bounds import BoundCertificate, bound_eval
from .errors import ParameterError, SimulationError
from .models import Family
from .stochastics import NoiseStream, Record, finite_positive, integral

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
# a copy's count sits in 32 bits of a packed count and stays below this
_MAX_COUNT = 2**31


def _cells(x: np.ndarray, bin_width: float, out=None):
    """Cell index floor(x / w) of every value, as int64, with the lowest
    and highest cell.

    ``out`` is a float64 array of x's size (fresh by default): the
    division and floor run in it, then each element is cast in place
    through an int64 view of the same memory, which is returned.

    Raises ParameterError when a value is non-finite or its cell lies
    beyond +-2**62, where the int64 cast would wrap.
    """
    cells = np.empty(x.size) if out is None else out
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
    index = cells.view(np.int64)
    index[...] = cells
    return index, int(lo), int(hi)


def _tally(cells: np.ndarray, lo: int, hi: int, tallied_cells: np.ndarray, tallied_counts: np.ndarray, shift: int):
    """Sorted distinct cells of ``cells`` and of the sorted distinct
    ``tallied_cells``, each with how often it occurs in ``cells`` shifted
    left by ``shift`` bits plus its ``tallied_counts``, as fresh int64 arrays.

    ``cells`` is a non-empty int64 array of the caller's own, whose lowest
    and highest values are lo and hi.  The one place that chooses how to
    count: np.bincount on the offset index over the union span of both
    inputs, into which the tallied counts are scatter-added, or, when that
    span exceeds 8 cells per value (input or tallied cell), a sort.  The
    bincount branch offsets ``cells`` in place.
    """
    if tallied_cells.size:
        lo, hi = min(lo, int(tallied_cells[0])), max(hi, int(tallied_cells[-1]))
    if hi - lo + 1 > _SPAN_PER_VALUE * (cells.size + tallied_cells.size):
        cells, counts = np.unique(cells, return_counts=True)
        if shift:
            counts <<= shift
        if not tallied_cells.size:
            return cells, counts
        cells, counts = np.concatenate([cells, tallied_cells]), np.concatenate([counts, tallied_counts])
        order = np.argsort(cells, kind="stable")  # a merge of the sorted runs
        cells = cells[order]
        first = np.flatnonzero(np.diff(cells, prepend=cells[0] - 1))
        return cells[first], np.add.reduceat(counts[order], first)
    cells -= lo
    counts = np.bincount(cells, minlength=hi - lo + 1)
    if shift:
        counts <<= shift
    counts[tallied_cells - lo] += tallied_counts
    occupied = np.flatnonzero(counts != 0)  # nonzero scans a bool mask several times faster than int64
    return occupied + lo, counts[occupied]


class Histogram:
    """Fixed-width counting histogram anchored at 0 of two samples,
    copies a (0) and b (1), on one cell list.

    Bin i covers [i*w, (i+1)*w).  ``cells`` holds, in increasing order,
    the indices i of the bins occupied in either copy, and ``counts``
    their packed counts: copy a's count plus 2**32 times copy b's, each
    below 2**31, so a stored cell may be empty in one copy.  Both are
    int64 arrays.  A histogram of one sample holds it as copy a.
    """

    def __init__(self, bin_width: float):
        self.bin_width = finite_positive("bin width", bin_width)
        self.cells = np.empty(0, dtype=np.int64)
        self.counts = np.empty(0, dtype=np.int64)

    def fold(self, cells: np.ndarray, lo: int, hi: int, copy: int = 0) -> None:
        """Add one count to copy ``copy`` for each cell index in ``cells``,
        a non-empty int64 array of the caller's own whose lowest and
        highest values are lo and hi (as ``_cells`` returns them), which
        this offsets in place."""
        self.cells, self.counts = _tally(cells, lo, hi, self.cells, self.counts, 32 * copy)


class TVEstimate(NamedTuple):
    estimate: float
    mc_se: float
    noise_floor: float
    density_sup: float


def tv_from_histograms(h: Histogram) -> TVEstimate:
    """Plug-in TV between the two copies of one histogram.

    mc_se propagates per-bin binomial variance (with add-half smoothing
    so that degenerate tiny samples report a large, not zero, error);
    noise_floor is the expected value of the statistic under identical
    laws (normal approximation with pooled per-bin probabilities);
    density_sup is the larger of the two copies' plug-in density maxima,
    max_i p_i / w.
    """
    ca, cb = h.counts & 0xFFFFFFFF, h.counts >> 32
    na, nb = int(ca.sum()), int(cb.sum())
    if na == 0 or nb == 0:
        raise ParameterError("cannot estimate TV from an empty copy")
    pa, pb = ca / na, cb / nb
    est = 0.5 * float(np.abs(pa - pb).sum())
    sa, sb = (ca + 0.5) / (na + 1), (cb + 0.5) / (nb + 1)
    var_diff = sa * (1 - sa) / na + sb * (1 - sb) / nb
    se = 0.5 * math.sqrt(float(var_diff.sum()))
    pooled = (ca + cb) / (na + nb)
    null_var = pooled * (1 - pooled) * (1.0 / na + 1.0 / nb)
    floor = 0.5 * math.sqrt(2 / math.pi) * float(np.sqrt(null_var).sum())
    sup = max(int(ca.max()) / (na * h.bin_width), int(cb.max()) / (nb * h.bin_width))
    return TVEstimate(est, se, floor, sup)


def tv_histogram(samples_a, samples_b, bin_width: float) -> TVEstimate:
    """Histogram TV between two equal-size sample sets of fewer than
    2**31 values each, binned as the two copies of one histogram."""
    a = np.asarray(samples_a, dtype=float)
    b = np.asarray(samples_b, dtype=float)
    if a.size == 0 or b.size == 0:
        raise ParameterError("sample sets must be non-empty")
    if a.size != b.size:
        raise ParameterError(f"sample sets must have equal size, got {a.size} and {b.size}")
    if a.size >= _MAX_COUNT:
        raise ParameterError(f"need fewer than 2**31 samples per set, got {a.size}")
    h = Histogram(bin_width)
    for copy, x in enumerate((a, b)):
        h.fold(*_cells(x.ravel(), bin_width), copy=copy)
    return tv_from_histograms(h)


class TVCurveRow(Record):
    n: int
    bound: Optional[float]
    bound_clamped: Optional[float]
    tv_sim: Optional[float]
    tv_exact: Optional[float]
    mc_se: Optional[float]
    noise_floor: Optional[float] = None
    density_sup: Optional[float] = None


class TVCurve(Record):
    rows: list

    CSV_HEADER = "n,bound,bound_clamped,tv_sim,tv_exact,mc_se"

    def to_csv(self) -> str:
        """CSV of the CSV_HEADER columns: n as is, absent values empty, others at 9 significant digits."""

        def fmt(r, name):
            v = getattr(r, name)
            return str(v) if name == "n" else "" if v is None else f"{v:.9g}"

        names = self.CSV_HEADER.split(",")
        lines = [self.CSV_HEADER] + [",".join(fmt(r, k) for k in names) for r in self.rows]
        return "\n".join(lines) + "\n"


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

    Job k runs copy k % 2 of the 2**17-path chunk k // 2 on
    ``stream.substream(k)``.  With ``workers`` > 1 the jobs run on a
    thread pool of min(workers, jobs) threads in this process; the result
    is byte-identical for any ``workers``.  A non-Family model, or a bad or
    unbinnable start, raises ParameterError before any job; a diverging copy
    raises SimulationError naming the iteration, chunk and start of the first
    failing job in job order; later jobs stop at their next iteration.
    """
    n_max, n_paths, workers = integral("n_max", n_max), integral("n_paths", n_paths), integral("workers", workers)
    if not 1 <= n_paths < _MAX_COUNT:
        raise ParameterError(f"need 1 <= n_paths < 2**31, got {n_paths}")
    if n_max < 1:
        raise ParameterError(f"need n_max >= 1, got {n_max}")
    if workers < 1:
        raise ParameterError(f"need workers >= 1, got {workers}")
    if not isinstance(stream, NoiseStream):
        raise ParameterError(f"stream must be a NoiseStream, got {type(stream).__name__}")
    if not (certificate is None or isinstance(certificate, BoundCertificate)):
        raise ParameterError(f"certificate must be a BoundCertificate or None, got {type(certificate).__name__}")
    if not isinstance(model, Family):
        raise ParameterError(f"{type(model).__name__} has no chain to simulate")
    # reject invalid initial states before any chunk starts
    model.start_state(x0, s20)
    model.start_state(x0_prime, s20_prime, ("x0p", "s20p"))

    starts = ((x0, s20), (x0_prime, s20_prime))
    n_jobs = 2 * -(-n_paths // _CHUNK_PATHS)
    # every job folds each iteration into its copy's half of these running
    # histograms, so only n_max are held whatever n_paths is; building them
    # checks the bin width first
    hists = [Histogram(bin_width) for _ in range(n_max)]
    for name, x in (("x0", x0), ("x0p", x0_prime)):
        if not abs(float(x)) / float(bin_width) < _MAX_CELL:  # the cells _cells can cast
            raise ParameterError(f"start {name} = {x!r} out of histogram range at bin width {bin_width!r}")
    lock = threading.Lock()
    first_failed = n_jobs  # the first failed job in job order

    def job(k):
        nonlocal first_failed
        chunk, copy = divmod(k, 2)
        size = min(_CHUNK_PATHS, n_paths - chunk * _CHUNK_PATHS)
        x, s2 = starts[copy]
        rng = stream.substream(k).generator()
        state = model.make_state(np.full(size, float(x)), None if s2 is None else np.full(size, float(s2)))
        noise = None
        for n, h in enumerate(hists, start=1):
            if first_failed < k:
                return
            noise = models_mod.draw_innovations(model, rng, size=size, out=noise)
            models_mod.step(model, state, noise, out=state)
            spent = noise[0] if isinstance(noise, tuple) else noise  # step has consumed it
            try:
                cells = _cells(model.observable(state), h.bin_width, spent)
            except ParameterError as exc:
                with lock:
                    first_failed = min(first_failed, k)
                start = ("x0", "x0p")[copy]
                raise SimulationError(
                    f"chain diverged at iteration {n} (chunk {chunk}, start {start}): {exc}"
                ) from None
            with lock:
                h.fold(*cells, copy=copy)

    # workers == 1 runs on this thread: a pool thread's own malloc arena raises peak RSS
    pool = ThreadPoolExecutor(max_workers=min(workers, n_jobs)) if workers > 1 else None
    with pool or nullcontext():
        # reading every result raises the first failing job in job order
        list((pool.map if pool else map)(job, range(n_jobs)))

    rows = []
    for n in range(1, n_max + 1):
        est, hists[n - 1] = tv_from_histograms(hists[n - 1]), None  # each histogram is dropped once read
        bound = clamped = None
        if certificate is not None and n > certificate.n0:
            bound, clamped = bound_eval(certificate, n)
        exact = model.exact_tv(float(x0), float(x0_prime), n)
        rows.append(TVCurveRow(
            n=n, bound=bound, bound_clamped=clamped, tv_sim=est.estimate, tv_exact=exact, mc_se=est.mc_se,
            noise_floor=est.noise_floor, density_sup=est.density_sup,
        ))
    return TVCurve(rows)

