import functools
import math
import re
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
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
    dens_sup = max(
        Histogram.from_samples(np.exp(a), w).density_sup(),
        Histogram.from_samples(np.exp(b), w).density_sup(),
    )
    exp_est = tv_histogram(np.exp(a), np.exp(b), w)
    assert abs(exp_est.estimate - base.estimate) <= 2 * w * dens_sup + 3 * (exp_est.mc_se + base.mc_se)


def test_histogram_merge_matches_bulk(rng):
    x = rng.standard_normal(10_000)
    h1 = Histogram.from_samples(x[:4_000], 0.1)
    h2 = Histogram.from_samples(x[4_000:], 0.1)
    h1.merge(h2)
    bulk = Histogram.from_samples(x, 0.1)
    assert np.array_equal(h1.cells, bulk.cells) and np.array_equal(h1.counts, bulk.counts)
    assert h1.total == bulk.total


@pytest.mark.parametrize("scale", [1.0, 1e6])  # a dense span, and one sorted instead
def test_histogram_merge_of_many_parts_matches_bulk(rng, scale):
    # parts with tail cells the others lack, merged at once and folded in any order
    parts = [rng.standard_t(3, n) * scale for n in (3_000, 500, 7, 2_000)]
    bulk = Histogram.from_samples(np.concatenate(parts), 0.01)
    at_once = Histogram(0.01)
    at_once.merge(*(Histogram.from_samples(x, 0.01) for x in parts))
    folded = Histogram(0.01)
    for x in reversed(parts):
        folded.merge(Histogram.from_samples(x, 0.01))
    for h in (at_once, folded):
        assert np.array_equal(h.cells, bulk.cells) and np.array_equal(h.counts, bulk.counts)
        assert h.cells.dtype == h.counts.dtype == np.int64


def test_histogram_matches_np_unique(rng):
    # cells on both sides of zero, some bins empty
    for n, w in [(1, 0.1), (5_000, 0.1), (50_000, 0.003), (2_000, 2.0)]:
        x = rng.standard_normal(n) * rng.uniform(0.5, 40.0)
        h = Histogram.from_samples(x, w)
        cells, counts = np.unique(np.floor(x / w).astype(np.int64), return_counts=True)
        assert np.array_equal(h.cells, cells) and np.array_equal(h.counts, counts)
        assert h.cells.dtype == h.counts.dtype == np.int64
        assert h.total == n


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
        h = Histogram.from_samples([0.0, 1e15], 1.0)
        h.merge(Histogram.from_samples([-1e15, 1e15], 1.0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert h.cells.tolist() == [-10**15, 0, 10**15] and h.counts.tolist() == [1, 1, 2]
    assert peak < 1 << 20


@pytest.mark.parametrize("width", [math.inf, math.nan, 0.0, -1.0])
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
        Histogram.from_samples([1e300, -1e300], 1e-3)
    with pytest.raises(ParameterError, match="out of histogram range"):
        tv_histogram([1e300, 1.0], [2e300, 5.0], 1e-3)
    with pytest.raises(ParameterError, match="1 of 2 values non-finite"):
        tv_histogram([np.nan, 1.0], [2.0, 5.0], 1e-3)


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
    model = models.GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
    kw = dict(n_max=3, n_paths=140_000, bin_width=0.01, s20=0.0001, s20_prime=0.01)
    a = simulate_tv_curve(model, 0.1, -0.1, stream=NoiseStream(77), workers=1, **kw)
    b = simulate_tv_curve(model, 0.1, -0.1, stream=NoiseStream(77), workers=3, **kw)
    c = simulate_tv_curve(model, 0.1, -0.1, stream=NoiseStream(77), workers=1, **kw)
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


def test_tv_from_histograms_grid_mismatch(rng):
    a = Histogram.from_samples(rng.standard_normal(100), 0.1)
    b = Histogram.from_samples(rng.standard_normal(100), 0.2)
    with pytest.raises(ParameterError):
        tv_from_histograms(a, b)
    with pytest.raises(ParameterError, match="different grids"):
        a.merge(b)
