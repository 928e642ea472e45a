import functools
import math
import re
import sys
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import norm

from tvbounds import models, tvlab
from tvbounds.errors import ParameterError, SimulationError
from tvbounds.models import ARNormal1D
from tvbounds.stochastics import Normal, NoiseStream
from tvbounds.tvlab import (
    Histogram,
    simulate_tv_curve,
    tv_from_histograms,
    tv_histogram,
)

from oracles import copy_counts, histogram_from_samples


# ----------------------------------------------------------------- histogram

def test_tv_identical_samples_zero(rng):
    x = rng.standard_normal(10_000)
    est = tv_histogram(x, x.copy(), 0.01)
    assert est.estimate == 0.0


def test_tv_normal_vs_shifted_normal(rng):
    # TV(N(0,1), N(1,1)) = 1 - 2 Phi(-1/2) = 0.3829...
    n = 1_000_000
    a = rng.standard_normal(n)
    b = rng.standard_normal(n) + 1.0
    est = tv_histogram(a, b, 0.01)
    assert est.estimate == pytest.approx(0.38292492254802624, abs=0.01)


def test_tv_disjoint_supports_is_one(rng):
    a = rng.uniform(0.0, 1.0, 5_000)
    b = rng.uniform(5.0, 6.0, 5_000)
    assert tv_histogram(a, b, 0.01).estimate == 1.0


def test_tv_input_validation(rng):
    with pytest.raises(ParameterError):
        tv_histogram([], [], 0.01)
    with pytest.raises(ParameterError):
        tv_histogram([1.0, 2.0], [1.0], 0.01)
    with pytest.raises(ParameterError):
        tv_histogram([1.0], [1.0], 0.0)


def test_tv_symmetry(rng):
    a = rng.standard_normal(20_000)
    b = rng.standard_normal(20_000) * 1.3
    assert tv_histogram(a, b, 0.05).estimate == tv_histogram(b, a, 0.05).estimate


def test_tv_triangle_inequality(rng):
    a = rng.standard_normal(30_000)
    b = rng.standard_normal(30_000) + 0.7
    c = rng.standard_normal(30_000) + 1.4
    ab = tv_histogram(a, b, 0.05)
    bc = tv_histogram(b, c, 0.05)
    ac = tv_histogram(a, c, 0.05)
    assert ac.estimate <= ab.estimate + bc.estimate + 2 * (ab.mc_se + bc.mc_se + ac.mc_se)


def test_tv_noise_floor_tracks_null(rng):
    """Two samples of one law: the estimate sits at its predicted floor."""
    n = 200_000
    a = rng.standard_normal(n)
    b = rng.standard_normal(n)
    est = tv_histogram(a, b, 0.01)
    assert est.estimate == pytest.approx(est.noise_floor, rel=0.05)
    assert est.estimate > 10 * est.mc_se  # the floor is bias, not noise


def test_monotone_map_invariance(rng):
    """TV is invariant under strictly monotone maps when the bin grid is
    transported along the map; uniform re-binning adds only binning error."""
    n = 200_000
    a = rng.standard_normal(n)
    b = rng.standard_normal(n) + 0.8
    w = 0.05
    base = tv_histogram(a, b, w)
    edges = np.arange(-12.0, 12.0 + w, w)

    def tv_on_edges(x, y, e):
        ca, _ = np.histogram(x, bins=e)
        cb, _ = np.histogram(y, bins=e)
        return 0.5 * np.abs(ca / len(x) - cb / len(y)).sum()

    raw = tv_on_edges(a, b, edges)
    for g, ginv_edges in [(lambda x: 2 * x + 1, 2 * edges + 1), (np.exp, np.exp(edges))]:
        adapted = tv_on_edges(g(a), g(b), ginv_edges)
        assert adapted == pytest.approx(raw, abs=1e-15)
    # doubling the samples and the width is exact, so every sample keeps its cell
    affine = tv_histogram(2 * a, 2 * b, 2 * w)
    assert affine.estimate == pytest.approx(base.estimate, abs=1e-15)
    # exp map onto a fresh uniform grid: within the binning allowance
    exp_est = tv_histogram(np.exp(a), np.exp(b), w)
    assert abs(exp_est.estimate - base.estimate) <= 2 * w * exp_est.density_sup + 3 * (exp_est.mc_se + base.mc_se)


def test_histogram_merge_matches_bulk(rng):
    # the second part merged into the first by folding its raw cells
    x = rng.standard_normal(10_000)
    h = histogram_from_samples(x[:4_000], 0.1)
    h.fold(*tvlab._cells(x[4_000:], 0.1))
    bulk = histogram_from_samples(x, 0.1)
    assert np.array_equal(h.cells, bulk.cells) and np.array_equal(h.counts, bulk.counts)
    assert copy_counts(h, 0).sum() == copy_counts(bulk, 0).sum() == x.size


@pytest.mark.parametrize("scale", [1.0, 1e6])  # a dense span, and one sorted instead
def test_histogram_merge_of_many_parts_matches_bulk(rng, scale):
    # parts with tail cells the others lack, folded in any order as raw
    # cells into an initially empty histogram, as curve jobs fold them
    parts = [rng.standard_t(3, n) * scale for n in (3_000, 500, 7, 2_000)]
    bulk = histogram_from_samples(np.concatenate(parts), 0.01)
    for order in (parts, parts[::-1], [parts[i] for i in (2, 0, 3, 1)]):
        h = Histogram(0.01)
        for x in order:
            h.fold(*tvlab._cells(x, 0.01))
        assert np.array_equal(h.cells, bulk.cells) and np.array_equal(h.counts, bulk.counts)
        assert h.cells.dtype == h.counts.dtype == np.int64


def _sorts(h, x, w):
    """Whether folding the values x into h takes the sort branch of _tally."""
    lo, hi = np.floor(x.min() / w), np.floor(x.max() / w)
    if h.cells.size:
        lo, hi = min(lo, h.cells[0]), max(hi, h.cells[-1])
    return hi - lo + 1 > tvlab._SPAN_PER_VALUE * (x.size + h.cells.size)


@settings(derandomize=True, max_examples=60, deadline=None, database=None)
@given(
    chunks=st.lists(st.tuples(st.sampled_from((0, 1)), st.integers(1, 2_000)), min_size=1, max_size=8),
    heavy=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_packed_copies_folded_in_any_order_match_each_bulk(chunks, heavy, seed):
    # chunks of copies a and b folded onto one cell list in any interleaving:
    # each half equals that copy's bulk histogram, and every stored cell is
    # occupied in at least one copy; the heavy tail spans more than 8 cells
    # per value, so each of its folds into a non-empty histogram sorts
    rng = np.random.default_rng(seed)
    parts = [(copy, rng.standard_cauchy(n) * 1e6 if heavy else rng.standard_normal(n)) for copy, n in chunks]
    h = Histogram(0.01)
    sorted_folds = 0
    for copy, x in parts:
        sorted_folds += bool(h.cells.size) and _sorts(h, x, 0.01)
        h.fold(*tvlab._cells(x, 0.01), copy=copy)
    assert np.all(np.diff(h.cells) > 0) and np.all(h.counts > 0)
    for copy in (0, 1):
        xs = [x for c, x in parts if c == copy]
        bulk = histogram_from_samples(np.concatenate(xs) if xs else [], 0.01)
        counts = copy_counts(h, copy)
        assert np.array_equal(h.cells[counts != 0], bulk.cells) and np.array_equal(counts[counts != 0], bulk.counts)
        assert counts.sum() == sum(x.size for x in xs)
    if heavy:
        assert sorted_folds == len(parts) - 1


def test_histogram_matches_np_unique(rng):
    # cells on both sides of zero, some bins empty
    for n, w in [(1, 0.1), (5_000, 0.1), (50_000, 0.003), (2_000, 2.0)]:
        x = rng.standard_normal(n) * rng.uniform(0.5, 40.0)
        h = histogram_from_samples(x, w)
        cells, counts = np.unique(np.floor(x / w).astype(np.int64), return_counts=True)
        assert np.array_equal(h.cells, cells) and np.array_equal(h.counts, counts)
        assert h.cells.dtype == h.counts.dtype == np.int64
        assert copy_counts(h, 0).sum() == n and copy_counts(h, 1).sum() == 0


def _dict_tv(a, b, w):
    """Reference: the per-cell dict form of the plug-in estimator."""
    def counts(x):
        cells, cnts = np.unique(np.floor(np.asarray(x) / w).astype(np.int64), return_counts=True)
        return dict(zip(cells.tolist(), cnts.tolist()))

    da, db = counts(a), counts(b)
    na, nb = len(a), len(b)
    keys = sorted(set(da) | set(db))
    ca = np.array([da.get(k, 0) for k in keys], dtype=float)
    cb = np.array([db.get(k, 0) for k in keys], dtype=float)
    sa, sb = (ca + 0.5) / (na + 1), (cb + 0.5) / (nb + 1)
    pooled = (ca + cb) / (na + nb)
    return (
        0.5 * float(np.abs(ca / na - cb / nb).sum()),
        0.5 * math.sqrt(float((sa * (1 - sa) / na + sb * (1 - sb) / nb).sum())),
        0.5 * math.sqrt(2 / math.pi) * float(np.sqrt(pooled * (1 - pooled) * (1.0 / na + 1.0 / nb)).sum()),
        max(max(da.values()) / (na * w), max(db.values()) / (nb * w)),
    )


def test_tv_matches_dict_reference_exactly(rng):
    # same cells, same order, same arithmetic: equal to the last bit
    for n, w in [(1, 0.01), (3_000, 0.001), (40_000, 0.05), (500, 1e-6)]:
        a = rng.standard_normal(n) * 3
        b = rng.standard_t(2, n) + 0.5
        assert tuple(tv_histogram(a, b, w)) == _dict_tv(a, b, w)
    a, b = rng.uniform(0.0, 1.0, 2_000), rng.uniform(0.5, 9.0, 2_000)  # partly disjoint
    assert tuple(tv_histogram(a, b, 0.01)) == _dict_tv(a, b, 0.01)


def test_histogram_wide_span_stays_small():
    # a span of 1e15 cells must not allocate span-sized arrays
    tracemalloc.start()
    try:
        h = histogram_from_samples([0.0, 1e15], 1.0)
        h.fold(*tvlab._cells(np.array([-1e15, 1e15]), 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.cells.tolist() == [-10**15, 0, 10**15] and h.counts.tolist() == [1, 1, 2]
    assert peak < 1 << 20


@pytest.mark.parametrize("width", [math.inf, math.nan, 0.0, -1.0, True])
def test_histogram_rejects_width_not_finite_positive(width):
    # an infinite width puts every sample in one cell and reports TV = 0
    with pytest.raises(ParameterError, match="bin width must be finite and > 0"):
        Histogram(width)
    with pytest.raises(ParameterError, match="bin width must be finite and > 0"):
        tv_histogram([0.0], [1.0], width)
    with pytest.raises(ParameterError, match="bin width must be finite and > 0"):
        simulate_tv_curve(ARNormal1D(0.5, 1.0), 0.0, 1.0, 2, 10, width, NoiseStream(1))


def test_histogram_rejects_out_of_range_cells():
    # both huge values would wrap to cell -2**63 in an unchecked int64 cast
    with pytest.raises(ParameterError, match="2 out of histogram range"):
        histogram_from_samples([1e300, -1e300], 1e-3)
    with pytest.raises(ParameterError, match="out of histogram range"):
        tv_histogram([1e300, 1.0], [2e300, 5.0], 1e-3)
    with pytest.raises(ParameterError, match="1 of 2 values non-finite"):
        tv_histogram([np.nan, 1.0], [2.0, 5.0], 1e-3)


def test_cells_cast_in_place_in_the_given_buffer(rng):
    # a curve job bins into its spent draws, cast through an int64 view
    x = rng.standard_normal(1000) * 50
    spent = np.empty(x.size)
    index, lo, hi = tvlab._cells(x, 0.01, spent)
    assert np.shares_memory(index, spent)
    expected = np.floor(x / 0.01).astype(np.int64)
    assert (index.tobytes(), lo, hi) == (expected.tobytes(), expected.min(), expected.max())
    with pytest.raises(ParameterError) as exc:
        tvlab._cells(np.array([1.0, np.nan, 1e300]), 1e-3, spent[:3])
    assert str(exc.value) == "1 of 3 values non-finite, 1 out of histogram range (|x| / bin_width >= 2**62)"


# -------------------------------------------------------------- exact TV

# X_n = X_{n-1}/2 + sqrt(3/4) Z_n, the chain of the paper's AR(1) example
AR_HALF = ARNormal1D(0.5, math.sqrt(0.75))


def test_tv_exact_first_below_threshold_at_six():
    vals = {n: AR_HALF.exact_tv(0.0, 1.0, n) for n in range(1, 9)}
    assert vals[6] < 0.01 < vals[5]
    assert vals[6] == pytest.approx(0.006234170759827351, rel=1e-12)


def test_tv_exact_identical_starts():
    assert AR_HALF.exact_tv(1.3, 1.3, 4) == 0.0


def test_tv_exact_one_step():
    assert AR_HALF.exact_tv(0.0, 1.0, 1) == pytest.approx(0.22717000731555248, rel=1e-12)
    # cross-check against the generic normal location family TV formula
    delta = 1.0 / 2.0
    sigma = math.sqrt(1 - 0.25)
    assert AR_HALF.exact_tv(0.0, 1.0, 1) == pytest.approx(1 - 2 * norm.cdf(-delta / (2 * sigma)), rel=1e-12)


# ------------------------------------------------------------------- curves

def test_curve_tracks_exact_ar1():
    # every AR(1) curve fills tv_exact, not only the standard a = 1/2 chain
    for a, sigma in [(0.5, math.sqrt(0.75)), (0.8, 1.0)]:
        model = ARNormal1D(a, sigma)
        cert = model.certificate(1.0)
        curve = simulate_tv_curve(model, 0.0, 1.0, n_max=8, n_paths=100_000, bin_width=0.01,
                                  stream=NoiseStream(2026), certificate=cert)
        for r in curve.rows:
            assert r.tv_exact == model.exact_tv(0.0, 1.0, r.n)
            assert abs(r.tv_sim - r.tv_exact) <= 3 * r.mc_se + r.noise_floor + 0.01
            assert r.bound_clamped <= 1.0
            # soundness against the bound, floor-aware
            assert r.tv_sim <= r.bound_clamped + 3 * r.mc_se + r.noise_floor


def test_curve_sound_for_nonlinear_ar():
    cert = models.NonlinearAR().certificate(gap=1.0)
    curve = simulate_tv_curve(models.NonlinearAR(), 1.0, 2.0, n_max=8, n_paths=200_000,
                              bin_width=0.01, stream=NoiseStream(41), certificate=cert)
    for r in curve.rows:
        assert r.tv_sim <= r.bound_clamped + 3 * r.mc_se + r.noise_floor


def test_curve_sound_for_gibbs_chains(trees):
    j, _, s = trees
    loc = models.LocationGibbsTau(j, s)
    cert = loc.certificate(gap=19.0)
    curve = simulate_tv_curve(loc, 1.0, 20.0, n_max=5,
                              n_paths=400_000, bin_width=0.05, stream=NoiseStream(43),
                              certificate=cert)
    for r in curve.rows:
        assert r.tv_sim <= r.bound_clamped + 3 * r.mc_se + r.noise_floor

    reg = models.RegressionGibbsSigma(333, 4, 26123.0)
    rcert = reg.certificate(gap=1000.0)
    rcurve = simulate_tv_curve(reg, 1.0, 1001.0,
                               n_max=4, n_paths=400_000, bin_width=0.05,
                               stream=NoiseStream(44), certificate=rcert)
    for r in rcurve.rows:
        assert r.tv_sim <= r.bound_clamped + 3 * r.mc_se + r.noise_floor


@pytest.mark.parametrize("beta2,gamma2", [(0.3, 0.0), (0.0, 0.6), (0.0, 0.0)])
def test_curve_sound_for_degenerate_garch(beta2, gamma2):
    # gamma2 = 0 is ARCH(1); beta2 = 0 makes the volatility deterministic
    z = Normal(0.0, 1.0)
    model = models.GARCH(0.13, beta2, gamma2, z)
    cert = model.certificate(0.1, -0.4, 0.0001, 0.5)
    curve = simulate_tv_curve(model, 0.1, -0.4, n_max=6,
                              n_paths=200_000, bin_width=0.01, stream=NoiseStream(45),
                              certificate=cert, s20=0.0001, s20_prime=0.5)
    assert curve.rows[0].bound is None  # the certificate starts after n0 = 1
    for r in curve.rows[1:]:
        assert r.tv_sim <= r.bound_clamped + 3 * r.mc_se + r.noise_floor


def test_curve_mc_se_scales_with_paths():
    model = ARNormal1D(0.5, math.sqrt(0.75))
    c1 = simulate_tv_curve(model, 0.0, 1.0, 3, 25_000, 0.01, NoiseStream(5))
    c2 = simulate_tv_curve(model, 0.0, 1.0, 3, 100_000, 0.01, NoiseStream(6))
    for r1, r2 in zip(c1.rows, c2.rows):
        assert r2.mc_se == pytest.approx(r1.mc_se / 2, rel=0.2)


def test_curve_deterministic_across_workers_and_reruns():
    cases = [
        (models.GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)), (0.1, -0.1),
         dict(bin_width=0.01, s20=0.0001, s20_prime=0.01)),
        # at this width every fold adds cells the running histogram lacks
        (models.AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)), (0.0, 5.0), dict(bin_width=0.001)),
    ]
    for model, starts, kw in cases:
        kw = dict(n_max=3, n_paths=140_000, **kw)
        a = simulate_tv_curve(model, *starts, stream=NoiseStream(77), workers=1, **kw)
        b = simulate_tv_curve(model, *starts, stream=NoiseStream(77), workers=3, **kw)
        c = simulate_tv_curve(model, *starts, stream=NoiseStream(77), workers=1, **kw)
        assert a.to_csv() == b.to_csv() == c.to_csv()


def _curve_peak_bytes(n_chunks):
    model = models.AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0))
    tracemalloc.start()
    try:
        simulate_tv_curve(model, 0.0, 5.0, 5, n_chunks << 17, 0.001, NoiseStream(110))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return peak


def test_curve_memory_does_not_grow_with_paths():
    """Chunks are folded into running per-iteration histograms as they
    arrive, so tripling the chunk count barely moves the traced peak.

    Bound: the 6-chunk peak is at most 1.6x the 2-chunk peak.  Keeping
    every chunk's histograms until the last chunk ends gave 16.0 -> 36.5 MB
    (ratio 2.28); folding and dropping each chunk gives 16.0 -> 17.9 MB
    (ratio 1.12).  Both runs take under 1 s.
    """
    assert _curve_peak_bytes(6) <= 1.6 * _curve_peak_bytes(2)


def test_curve_working_set_beyond_the_merged_histograms(monkeypatch):
    """Each job folds every iteration into the running histograms as it
    is binned, so beyond the final histograms a curve holds only the fixed
    working set of the job in flight; both copies of an iteration share one
    histogram, 16 bytes per cell occupied in either copy.

    Bound: traced peak minus the bytes of the final histograms is at most
    8 MiB.  Keeping each job's n_max histograms until the job ended and
    re-tallying them on the main thread gave 20.8 MiB; folding inside the
    job gives 5.3 MiB with one histogram per copy (traced peak 26.7 MiB)
    and 5.6 MiB with both copies packed on one cell list (17.8 MiB).
    """
    final = []

    def capture(h):
        final.append(h)
        return tv_from_histograms(h)

    monkeypatch.setattr(tvlab, "tv_from_histograms", capture)
    model = models.AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0))
    tracemalloc.start()
    try:
        simulate_tv_curve(model, 0.0, 5.0, 20, 1 << 18, 0.001, NoiseStream(110), workers=1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    held = sum(h.cells.nbytes + h.counts.nbytes for h in final)
    assert len(final) == 20
    # one packed count per distinct cell of an iteration, occupied in either copy
    assert all(np.all(np.diff(h.cells) > 0) for h in final)
    assert held == 16 * sum(np.count_nonzero(h.counts) for h in final)
    assert peak - held <= 8 << 20, (peak - held) / 2**20


@functools.cache
def _diverging_message(workers):
    # 140_000 paths make two chunks, four jobs; workers=2 runs them on the pool
    model = ARNormal1D(3.0, 1.0)
    with pytest.raises(SimulationError) as info:
        simulate_tv_curve(model, 0.0, 1.0, 40, 140_000, 0.01, NoiseStream(3), workers=workers)
    return str(info.value)


@pytest.mark.parametrize("workers", [1, 2])
def test_curve_diverging_chain_raises(workers):
    message = _diverging_message(workers)
    assert re.search(r"iteration 3\d \(chunk 0, start x0\): .* out of histogram range", message)
    # the first failing job in job order raises, whatever the thread timing
    assert message == _diverging_message(1)


def test_curve_stops_later_jobs_after_a_failure(monkeypatch):
    # 16 jobs on 2 threads, and chunk 0's copy x0 diverges at iteration 35:
    # once a job fails, the jobs after it stop at their next iteration and
    # no new one starts, so only chunk 0's two jobs draw (running the others
    # on to their own failures made 105-140 draws)
    draws = []
    draw = models.draw_innovations

    def counted(*args, **kwargs):
        draws.append(None)
        return draw(*args, **kwargs)

    monkeypatch.setattr(models, "draw_innovations", counted)
    with pytest.raises(SimulationError, match=r"iteration 35 \(chunk 0, start x0\)"):
        simulate_tv_curve(ARNormal1D(3, 1), 0, 1, 40, 10**6, 0.01, NoiseStream(3), workers=2)
    assert len(draws) <= 70


@pytest.mark.parametrize("model", [ARNormal1D(0.5, 1.0), models.LocationGibbsTau(31, 295.43741935483877)],
                         ids=["ar1", "location-gibbs"])
def test_curve_job_draws_into_the_previous_iterations_arrays(monkeypatch, model):
    calls = []
    draw = models.draw_innovations

    def recording(model, rng, size, out=None):
        noise = draw(model, rng, size, out)
        calls.append((out, noise))
        return noise

    monkeypatch.setattr(models, "draw_innovations", recording)
    # one chunk: the jobs of copies x0 and x0' run in turn, 4 iterations each
    simulate_tv_curve(model, 1.0, 2.0, 4, 1000, 0.05, NoiseStream(5), workers=1)
    def arrays(noise):  # a Gibbs draw is a pair of arrays
        return noise if isinstance(noise, tuple) else (noise,)

    assert len(calls) == 8
    for job in (calls[:4], calls[4:]):
        assert job[0][0] is None
        for (out, noise), (_, spent) in zip(job[1:], job):
            assert out is spent
            assert all(a is b for a, b in zip(arrays(noise), arrays(spent), strict=True))


def test_packed_counts_refuse_2_31_values_per_copy(monkeypatch):
    # a copy's count must stay below 2**31, or it would carry into the other
    # copy's half of the packed count; both checks run before any allocation
    def no_work(*args, **kwargs):
        raise AssertionError("samples were drawn or binned")

    monkeypatch.setattr(models, "draw_innovations", no_work)
    monkeypatch.setattr(tvlab, "_cells", no_work)
    with pytest.raises(ParameterError, match=r"n_paths < 2\*\*31, got 2147483648"):
        simulate_tv_curve(ARNormal1D(0.5, 1.0), 0.0, 1.0, 2, 2**31, 0.01, NoiseStream(1))
    big = np.broadcast_to(0.0, 2**31)  # one value viewed 2**31 times, nothing allocated
    with pytest.raises(ParameterError, match=r"fewer than 2\*\*31 samples per set, got 2147483648"):
        tv_histogram(big, big, 0.01)


@pytest.mark.parametrize("n_max, n_paths, name", [(True, True, "n_max"), (2, 1000.5, "n_paths"), (2.5, 10, "n_max")])
def test_curve_sizes_must_be_integers(n_max, n_paths, name):
    # a bool ran as 1 and a fraction failed in range() with a bare TypeError
    with pytest.raises(ParameterError, match=f"{name} must be an integer"):
        simulate_tv_curve(ARNormal1D(0.5, 1.0), 0.0, 1.0, n_max, n_paths, 0.01, NoiseStream(1))


@pytest.mark.parametrize("kwargs, message", [
    pytest.param({"workers": 0}, "need workers >= 1, got 0", id="workers-0"),
    pytest.param({"workers": -3}, "need workers >= 1, got -3", id="workers-negative"),
    pytest.param({"workers": True}, "workers must be an integer", id="workers-bool"),
    pytest.param({"workers": 2.5}, "workers must be an integer", id="workers-fraction"),
    pytest.param({"workers": "2"}, "workers must be an integer", id="workers-string"),
    pytest.param({"stream": np.random.default_rng(1)}, "stream must be a NoiseStream", id="stream-generator"),
    pytest.param({"certificate": {"C": 1.0, "D": 0.5}}, "certificate must be a BoundCertificate", id="cert-dict"),
])
def test_curve_checks_every_argument_before_any_job(monkeypatch, kwargs, message):
    # these ran serially, sized a pool by a float, or failed inside a job or
    # after every path was simulated
    def no_job(*args, **kw):
        raise AssertionError("a chunk job ran")

    monkeypatch.setattr(NoiseStream, "substream", no_job)
    kw = {"n_max": 2, "n_paths": 100, "bin_width": 0.01, "stream": NoiseStream(1), **kwargs}
    with pytest.raises(ParameterError, match=f"^{re.escape(message)}"):
        simulate_tv_curve(ARNormal1D(0.5, 1.0), 0.0, 1.0, **kw)


def test_curve_folds_lose_no_count_under_fast_thread_switching(monkeypatch):
    # more workers than cores fold into one curve's histograms while the
    # interpreter switches threads every microsecond: a lost update loses counts
    totals = []

    def capture(h):
        totals.append((int(copy_counts(h, 0).sum()), int(copy_counts(h, 1).sum())))
        return tv_from_histograms(h)

    monkeypatch.setattr(tvlab, "tv_from_histograms", capture)
    model = ARNormal1D(0.5, 1.0)
    kw = dict(n_max=4, n_paths=5 << 17, bin_width=0.01)
    pooled = []
    worker = threading.Thread(
        target=lambda: pooled.append(simulate_tv_curve(model, 0.0, 1.0, stream=NoiseStream(13), workers=8, **kw)),
        daemon=True,
    )
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        worker.start()
        worker.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not worker.is_alive() and len(pooled) == 1
    assert totals == [(5 << 17, 5 << 17)] * 4
    assert pooled[0].to_csv() == simulate_tv_curve(model, 0.0, 1.0, stream=NoiseStream(13), workers=1, **kw).to_csv()


def test_curve_pool_capped_at_job_count(monkeypatch):
    sizes = []

    class Recorder(ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=min(max_workers, 2))

    monkeypatch.setattr(tvlab, "ThreadPoolExecutor", Recorder)
    model = ARNormal1D(0.5, math.sqrt(0.75))
    kw = dict(n_max=2, bin_width=0.01, stream=NoiseStream(12))
    for n_paths in (100_000, 140_000):
        serial = simulate_tv_curve(model, 0.0, 1.0, n_paths=n_paths, workers=1, **kw).to_csv()
        for workers in (3, 100_000):
            assert simulate_tv_curve(model, 0.0, 1.0, n_paths=n_paths, workers=workers, **kw).to_csv() == serial
    # one chunk is two jobs and two chunks four; workers=1 starts no pool
    assert sizes == [2, 2, 3, 4]


def test_curve_single_path_degenerate_but_legal():
    model = ARNormal1D(0.5, math.sqrt(0.75))
    curve = simulate_tv_curve(model, 0.0, 1.0, 2, 1, 0.01, NoiseStream(9))
    assert len(curve.rows) == 2
    assert curve.rows[0].mc_se > 0.1


def test_curve_csv_format():
    model = ARNormal1D(0.5, math.sqrt(0.75))
    cert = model.certificate(1.0)
    curve = simulate_tv_curve(model, 0.0, 1.0, 2, 1000, 0.01, NoiseStream(10), certificate=cert)
    lines = curve.to_csv().strip().split("\n")
    assert lines[0] == "n,bound,bound_clamped,tv_sim,tv_exact,mc_se"
    first = lines[1].split(",")
    assert first[0] == "1"
    assert all(len(f) > 0 for f in first)
    # GARCH bound starts at n0+1 = 2: first row has empty bound fields
    g = models.GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
    gcert = g.certificate(0.1, -0.1, 0.0001, 0.01)
    gc = simulate_tv_curve(g, 0.1, -0.1, 2, 1000, 0.01, NoiseStream(11), certificate=gcert,
                           s20=0.0001, s20_prime=0.01)
    grow = gc.to_csv().strip().split("\n")[1].split(",")
    assert grow[1] == "" and grow[2] == ""


AR1 = ARNormal1D(0.5, 1.0)
AR1_STARTS = {"x0": 0.0, "x0_prime": 1.0}
GARCH_N01 = models.GARCH(0.13, 0.1266, 0.7922)
GARCH_STARTS = {"x0": 0.1, "x0_prime": -0.1, "s20": 0.0001, "s20_prime": 0.01}


@pytest.mark.parametrize("model,starts,name", [
    *[pytest.param(AR1, {**AR1_STARTS, "x0": bad}, "x0", id=f"x0-{label}")
      for label, bad in (("nan", math.nan), ("inf", math.inf), ("true", True), ("str", "1"), ("list", [1, 2]))],
    pytest.param(AR1, {**AR1_STARTS, "x0_prime": [1, 2]}, "x0p", id="x0-prime-list"),
    pytest.param(GARCH_N01, {**GARCH_STARTS, "s20": math.nan}, "s20", id="garch-s20-nan"),
    pytest.param(GARCH_N01, {**GARCH_STARTS, "s20": True}, "s20", id="garch-s20-true"),
    pytest.param(GARCH_N01, {**GARCH_STARTS, "s20_prime": False}, "s20p", id="garch-s20-prime-false"),
])
def test_curve_start_check_names_the_start_before_any_job(monkeypatch, model, starts, name):
    def no_job(*args, **kwargs):
        raise AssertionError("a chunk job ran")

    monkeypatch.setattr(NoiseStream, "substream", no_job)
    with pytest.raises(ParameterError, match=f"^start {re.escape(name)} must be a number"):
        simulate_tv_curve(model, n_max=2, n_paths=100, bin_width=0.01, stream=NoiseStream(1), **starts)


def test_curve_refuses_a_model_without_a_chain(monkeypatch):
    def no_job(*args, **kwargs):
        raise AssertionError("a chunk job ran")

    monkeypatch.setattr(NoiseStream, "substream", no_job)
    ard = models.ARNormalD(0.5 * np.eye(2), np.eye(2))
    with pytest.raises(ParameterError, match="^ARNormalD has no chain to simulate$"):
        simulate_tv_curve(ard, [1.0, 1.0], [0.0, 0.0], n_max=2, n_paths=100, bin_width=0.01, stream=NoiseStream(1))


def test_curve_start_range_is_the_range_binning_takes():
    # the largest float below 2**62 cells is a start; 2**62 is refused before any job, naming the start
    below = math.nextafter(2.0**62, 0)
    curve = simulate_tv_curve(ARNormal1D(0.5, 1.0), below, 0.0, n_max=1, n_paths=10, bin_width=1.0,
                              stream=NoiseStream(1))
    assert len(curve.rows) == 1
    with pytest.raises(ParameterError, match=r"^start x0p = 4\.6\d+e\+18 out of histogram range at bin width 1\.0$"):
        simulate_tv_curve(ARNormal1D(0.5, 1.0), 0.0, 2.0**62, n_max=1, n_paths=10, bin_width=1.0,
                          stream=NoiseStream(1))


# ---------------------------------------------------------------- shifted L1

SHIFT_GRID = np.linspace(-50.0, 50.0, 1_000_001)


def shifted_l1(f, delta):
    """Integral of |f(x + delta) - f(x)| by the trapezoid rule on [-50, 50]
    at step 1e-4: within 1e-9 of the closed forms of these tests."""
    return float(np.trapezoid(np.abs(f(SHIFT_GRID + delta) - f(SHIFT_GRID)), SHIFT_GRID))


def test_shifted_l1_monotone_codomain():
    # strictly monotone with codomain (0, 1): the integral is exactly delta
    f = lambda x: 1.0 / (1.0 + np.exp(-np.asarray(x)))
    assert shifted_l1(f, 0.3) == pytest.approx(0.3, abs=1e-6)


def test_shifted_l1_normal_density():
    # closed form: 2 (Phi(delta/2) - Phi(-delta/2))
    f = lambda x: np.exp(-np.asarray(x) ** 2 / 2) / math.sqrt(2 * math.pi)
    v = shifted_l1(f, 0.1)
    assert v == pytest.approx(2 * (norm.cdf(0.05) - norm.cdf(-0.05)), abs=1e-6)
    assert v <= (1 / math.sqrt(2 * math.pi)) * 2 * 0.1 + 1e-6


@pytest.mark.parametrize(
    "name,f,sup",
    [
        ("normal", lambda x: np.exp(-np.asarray(x) ** 2 / 2) / math.sqrt(2 * math.pi), 1 / math.sqrt(2 * math.pi)),
        ("laplace", lambda x: 0.5 * np.exp(-np.abs(np.asarray(x))), 0.5),
        ("logistic", lambda x: np.exp(-np.asarray(x)) / (1 + np.exp(-np.asarray(x))) ** 2, 0.25),
    ],
)
@pytest.mark.parametrize("delta", [0.05, 0.3, 1.0])
def test_shifted_l1_unimodal_bound(name, f, sup, delta):
    # single-mode densities obey the K(M+1)*delta envelope with M = 1
    assert shifted_l1(f, delta) <= 2 * sup * delta + 1e-6


# ------------------------------------------------- independent coordinates TV

def test_joint_tv_d_scaling(rng):
    """Joint TV of two independent coordinates stays below twice the
    per-coordinate TV (plus Monte-Carlo allowance)."""
    n = 400_000
    # coordinate laws at iteration 2 of the standard AR(1) chain
    mean_a, mean_b = 0.0 / 4, 1.0 / 4
    sd = math.sqrt(1 - 1 / 16)
    a = rng.normal(mean_a, sd, size=(n, 2))
    b = rng.normal(mean_b, sd, size=(n, 2))
    w = 0.25
    # 2-d histogram TV via paired bin indices
    def joint_tv(x, y):
        ix = np.floor(x / w).astype(np.int64)
        iy = np.floor(y / w).astype(np.int64)
        key_x = (ix[:, 0] + 2**20) * 2**21 + (ix[:, 1] + 2**20)
        key_y = (iy[:, 0] + 2**20) * 2**21 + (iy[:, 1] + 2**20)
        all_keys = np.concatenate([key_x, key_y])
        uniq, inv = np.unique(all_keys, return_inverse=True)
        ca = np.bincount(inv[:n], minlength=uniq.size)
        cb = np.bincount(inv[n:], minlength=uniq.size)
        return 0.5 * np.abs(ca / n - cb / n).sum()

    coord = tv_histogram(a[:, 0], b[:, 0], w)
    joint = joint_tv(a, b)
    exact_coord = 1 - 2 * norm.cdf(-abs(mean_a - mean_b) / (2 * sd))
    assert coord.estimate == pytest.approx(exact_coord, abs=0.01)
    assert joint <= 2 * coord.estimate + 3 * coord.mc_se + 0.02


def test_tv_from_histograms_rejects_an_empty_copy(rng):
    h = histogram_from_samples(rng.standard_normal(100), 0.1)
    with pytest.raises(ParameterError, match="empty copy"):
        tv_from_histograms(h)
