import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from tvbounds import bounds
from tvbounds.errors import DomainError, ParameterError
from tvbounds.models import LARCH
from tvbounds.stochastics import (
    ChiSquare,
    Gamma,
    InverseGamma,
    Normal,
    NoiseStream,
    abs_moment,
    density,
    dist_from_dict,
    dist_to_dict,
    log_density,
    sample,
)

S_TREES = 295.43741935483877


def test_parameter_validation():
    with pytest.raises(ParameterError):
        Normal(0.0, 0.0)
    with pytest.raises(ParameterError):
        ChiSquare(-1.0)
    with pytest.raises(ParameterError):
        Gamma(0.0, 1.0)
    with pytest.raises(ParameterError):
        InverseGamma(1.0, -2.0)


def test_normal_sample_mean():
    x = sample(Normal(0.0, 1.0), NoiseStream(11), size=1_000_000)
    assert abs(x.mean()) < 4e-3


def test_gamma_sample_mean_is_shape_over_rate():
    # shape-rate convention: mean of Gamma(1/2, S/2) is 1/S
    x = sample(Gamma(0.5, S_TREES / 2), NoiseStream(12), size=1_000_000)
    assert abs(x.mean() - 1 / S_TREES) < 0.01 * (1 / S_TREES)


def test_inverse_gamma_sample_mean():
    # mean of InverseGamma(16.5, S/2) is (S/2)/15.5
    s = 295.0
    x = sample(InverseGamma(16.5, s / 2), NoiseStream(13), size=1_000_000)
    expected = (s / 2) / 15.5
    assert abs(x.mean() - expected) < 0.01 * expected


def test_normal_density_at_mode():
    assert density(Normal(0.0, 1.0), 0.0) == pytest.approx(1 / math.sqrt(2 * math.pi), rel=1e-12)


def test_inverse_gamma_density_at_mode_matches_mode_height():
    for alpha, beta in [(1.0, 2.0), (16.5, 147.5), (170.5, 13061.6)]:
        mode = beta / (alpha + 1)
        assert density(InverseGamma(alpha, beta), mode) == pytest.approx(
            bounds.inverse_gamma_mode_height(alpha, beta), rel=1e-12
        )


def test_chi_square_density_at_one():
    # chi-square(1) density at 1 equals e^{-1/2}/sqrt(2 pi)
    assert density(ChiSquare(1), 1.0) == pytest.approx(0.24197072451914337, rel=1e-12)


def test_density_outside_support_is_zero():
    assert density(ChiSquare(1), -1.0) == 0.0
    assert density(Gamma(2.0, 1.0), 0.0) == 0.0
    assert density(InverseGamma(3.0, 1.0), -0.5) == 0.0


@pytest.mark.parametrize(
    "dist",
    [
        Normal(0.3, 1.7),
        ChiSquare(1),
        ChiSquare(4),
        Gamma(0.5, S_TREES / 2),
        Gamma(2.0, 0.5),
        InverseGamma(16.5, S_TREES / 2),
        InverseGamma(170.5, 13061.6),
    ],
    ids=str,
)
def test_density_integrates_to_one(dist):
    if isinstance(dist, Normal):
        lo, hi, mid = -np.inf, np.inf, dist.mu
    else:
        lo, hi = 0.0, np.inf
        mid = {ChiSquare: lambda d: d.nu, Gamma: lambda d: d.shape / d.rate, InverseGamma: lambda d: d.rate / d.shape}[
            type(dist)
        ](dist)
    total = quad(lambda x: density(dist, x), lo, mid, limit=200)[0]
    total += quad(lambda x: density(dist, x), mid, hi, limit=200)[0]
    assert abs(total - 1.0) < 1e-6


@pytest.mark.parametrize(
    "dist",
    [Normal(0.0, 1.0), ChiSquare(1), Gamma(0.5, 2.0), Gamma(3.0, 1.5), InverseGamma(16.5, 147.5)],
    ids=str,
)
def test_sample_density_consistency_ks(dist):
    """KS distance of 1e5 draws against the CDF obtained by quadrature."""
    n = 100_000
    x = np.sort(sample(dist, NoiseStream(77, hash(str(dist)) % 1000), size=n))
    lo = min(x[0], x[0] - 1.0) if isinstance(dist, Normal) else 0.0
    grid = np.unique(np.concatenate([[lo], np.quantile(x, np.linspace(0, 1, 2001)), [x[-1] * 1.1 + 1]]))
    cdf_vals = np.zeros_like(grid)
    for i in range(1, grid.size):
        cdf_vals[i] = cdf_vals[i - 1] + quad(lambda t: density(dist, t), grid[i - 1], grid[i], limit=100)[0]
    f_at_x = np.interp(x, grid, cdf_vals)
    emp_hi = np.arange(1, n + 1) / n
    emp_lo = np.arange(0, n) / n
    ks = max(np.max(np.abs(emp_hi - f_at_x)), np.max(np.abs(emp_lo - f_at_x)))
    assert ks < 0.01


def test_abs_moment_normal():
    assert abs_moment(Normal(0.0, 1.0), 1) == pytest.approx(math.sqrt(2 / math.pi), rel=1e-12)
    assert abs_moment(Normal(0.0, 1.0), 2) == pytest.approx(1.0, rel=1e-12)
    assert abs_moment(Normal(0.0, 2.0), 3) == pytest.approx(8 * 2 * math.sqrt(2 / math.pi), rel=1e-12)


def test_abs_moment_product_identity():
    # E[X] E[Y] for X ~ Gamma(p/2, C/2), Y ~ InverseGamma((k+p)/2, C/2) is p/(k+p-2)
    k, p, c = 333, 4, 26123.0
    prod = abs_moment(Gamma(p / 2, c / 2), 1) * abs_moment(InverseGamma((k + p) / 2, c / 2), 1)
    assert prod == pytest.approx(p / (k + p - 2), rel=1e-12)


def test_log_scale_height_of_a_normal_needs_mu_zero():
    # log|Z| has density 2 e^x f(e^x), peaking at 2 phi(1) for any centred normal
    for sigma in (1e-3, 1.0, 7.0):
        assert Normal(0.0, sigma).log_scale_sup() == pytest.approx(2 * stats.norm.pdf(1.0), rel=1e-14)
    with pytest.raises(DomainError):
        Normal(0.5, 1.0).log_scale_sup()


def test_abs_moment_nonexistent_raises():
    with pytest.raises(DomainError):
        abs_moment(InverseGamma(2.0, 1.0), 2)
    with pytest.raises(DomainError):
        abs_moment(InverseGamma(1.0, 1.0), 1)


def test_first_moments_are_the_exact_ratios():
    # E[G] = a/b and E[1/G] = b/(a - 1) in one rounding: an lgamma form
    # rounds either way, and a D rounded below 1 certifies a chain that
    # does not contract
    rates = (1e-3, 0.5, 1.0, 2.0, 3.7, 1e3)
    for a in np.arange(0.25, 100.0, 0.5):
        a = float(a)
        for b in rates:
            assert abs_moment(Gamma(a, b), 1) == a / b, (a, b)
            if a > 1:
                assert abs_moment(InverseGamma(a, b), 1) == b / (a - 1), (a, b)
    # no partial product overflows: a(a+1) and b^2 are both past 1e308 here
    assert abs_moment(Gamma(1e200, 1e200), 2) == 1.0
    assert abs_moment(InverseGamma(1e200, 1e200), 2) == 1.0
    # a moment that underflows to 0 is an error, not a law without noise
    for dist in (Gamma(1.0, 1e200), InverseGamma(3.0, 1e-200), Normal(0.0, 1e-200)):
        with pytest.raises(DomainError, match="underflows"):
            abs_moment(dist, 2)
    assert abs_moment(Gamma(1.0, 1e150), 2) == 2e-300


@pytest.mark.parametrize(
    "dist,k",
    [
        (Normal(0.0, 1.0), 1),
        (Normal(0.4, 0.7), 1),
        (ChiSquare(1), 1),
        (ChiSquare(3), 2),
        (Gamma(0.5, 2.0), 2),
        (InverseGamma(16.5, 147.5), 1),
    ],
    ids=str,
)
def test_abs_moment_matches_monte_carlo(dist, k):
    x = np.abs(sample(dist, NoiseStream(5, k), size=1_000_000)) ** k
    se = x.std(ddof=1) / math.sqrt(x.size)
    assert abs(x.mean() - abs_moment(dist, k)) < 3 * se


@pytest.mark.parametrize(
    "dist,oracle",
    [
        (Normal(0.0, 1.3), stats.chi(1, scale=1.3)),  # law of |1.3 Z|
        (ChiSquare(1), stats.chi2(1)),
        (ChiSquare(3), stats.chi2(3)),
        (Gamma(0.01, 2.0), stats.gamma(0.01, scale=0.5)),
        (Gamma(400.0, 3.0), stats.gamma(400.0, scale=1 / 3.0)),
        (Gamma(170.5, 13061.5), stats.gamma(170.5, scale=1 / 13061.5)),
        (InverseGamma(16.5, 147.7), stats.invgamma(16.5, scale=147.7)),
        (InverseGamma(170.5, 13061.5), stats.invgamma(170.5, scale=13061.5)),
    ],
    ids=str,
)
def test_abs_moment_and_log_density_match_scipy(dist, oracle):
    for k in (1, 2, 3):
        assert abs_moment(dist, k) == pytest.approx(oracle.moment(k), rel=1e-12)
    if isinstance(dist, Normal):
        oracle = stats.norm(dist.mu, dist.sigma)
    x = oracle.ppf([0.1, 0.5, 0.9])
    np.testing.assert_allclose(log_density(dist, x), oracle.logpdf(x), rtol=1e-12)


def _log_chi2_sup():
    """sup_x e^x f(e^x) for chi-square(1), as the LARCH certificate computes it."""
    return LARCH(1.0, 0.5, ChiSquare(1)).certificate(gap=1.0).details["log_noise_density_sup"]


def test_log_chi2_sup_closed_form():
    # log of a chi-square(1) variable has density (2 pi)^-1/2 exp((x - e^x)/2),
    # whose height at its mode x = 0 is 1/sqrt(2 pi e)
    assert _log_chi2_sup() == pytest.approx(1 / math.sqrt(2 * math.pi * math.e), rel=1e-15)


def test_log_chi2_sup_golden_section_oracle():
    def log_chi2_density(x):
        return math.exp(x) * float(density(ChiSquare(1), math.exp(x)))

    invphi = (math.sqrt(5) - 1) / 2
    a, b = -10.0, 10.0
    c1, c2 = b - invphi * (b - a), a + invphi * (b - a)
    f1, f2 = log_chi2_density(c1), log_chi2_density(c2)
    for _ in range(300):
        if f1 < f2:
            a, c1, f1 = c1, c2, f2
            c2 = a + invphi * (b - a)
            f2 = log_chi2_density(c2)
        else:
            b, c2, f2 = c2, c1, f1
            c1 = b - invphi * (b - a)
            f1 = log_chi2_density(c1)
    assert max(f1, f2) == pytest.approx(_log_chi2_sup(), abs=1e-9)


def test_reproducible_streams():
    s = NoiseStream(123, 7)
    a = sample(Normal(0.0, 1.0), s, size=50)
    b = sample(Normal(0.0, 1.0), NoiseStream(123, 7), size=50)
    assert np.array_equal(a, b)
    c = sample(Normal(0.0, 1.0), NoiseStream(123, 8), size=50)
    assert not np.array_equal(a, c)


def test_substreams_are_distinct():
    s = NoiseStream(9)
    kids = [s.substream(i) for i in range(4)]
    seqs = [sample(Normal(0.0, 1.0), k, size=10) for k in kids]
    for i in range(4):
        for j in range(i + 1, 4):
            assert not np.array_equal(seqs[i], seqs[j])


def _first_draws(stream):
    return tuple(stream.generator().standard_normal(4))


@pytest.mark.parametrize("a,b", [
    # the pairs the former id arithmetic stream_id * 1_000_003 + k + 1 mapped to one stream
    (NoiseStream(5, 7), NoiseStream(5, 0).substream(6)),
    (NoiseStream(5, 1).substream(0), NoiseStream(5, 0).substream(1_000_003)),
    (NoiseStream(5, 0).substream(1_000_003).substream(0), NoiseStream(5, 1).substream(0).substream(0)),
    (NoiseStream(5, 0).substream(2**32 - 1), NoiseStream(5, 4294).substream(954_413)),
], ids=["stream-id-vs-child", "large-k", "large-k-nested", "largest-k"])
def test_streams_that_once_aliased_are_distinct(a, b):
    assert a != b
    assert _first_draws(a) != _first_draws(b)


def test_substream_paths_with_equal_index_sums_are_distinct():
    s = NoiseStream(9)
    streams = [s.substream(3), s.substream(1).substream(2), s.substream(2).substream(1),
               s.substream(0).substream(3), s.substream(3).substream(0), s.substream(1).substream(1).substream(1)]
    assert len({_first_draws(t) for t in streams}) == len(streams)


def test_stream_key_is_the_seed_sequence_spawn_key():
    t = NoiseStream(20260809, 4).substream(7).substream(0)
    assert t == NoiseStream(20260809, 4, (7, 0))
    ss = np.random.SeedSequence(20260809, spawn_key=(4, 7, 0))
    assert np.array_equal(t.generator().random(8), np.random.Generator(np.random.PCG64(ss)).random(8))


@pytest.mark.parametrize("make", [
    lambda: NoiseStream(-1),
    lambda: NoiseStream(2**128),
    lambda: NoiseStream(1, -1),
    lambda: NoiseStream(1, True),
    lambda: NoiseStream(1, 2**32),
    lambda: NoiseStream(1).substream(-1),
    lambda: NoiseStream(1).substream(2.0),
    lambda: NoiseStream(1).substream(False),
    lambda: NoiseStream(1).substream(0).substream(2**32),
], ids=["seed-negative", "seed-too-wide", "stream-id-negative", "stream-id-bool", "stream-id-too-wide",
        "k-negative", "k-float", "k-bool", "nested-k-too-wide"])
def test_stream_key_parts_must_be_bounded_non_negative_integers(make):
    with pytest.raises(ParameterError):
        make()


@pytest.mark.parametrize("dist", [Gamma(0.5, 2.0), Gamma(0.5, S_TREES / 2), ChiSquare(1)], ids=str)
def test_half_shape_gamma_draws_match_their_moments(dist):
    n = 2**17
    x = sample(dist, NoiseStream(31), size=n)
    m1, m2, m4 = (abs_moment(dist, k) for k in (1, 2, 4))
    assert abs(x.mean() - m1) < 5 * math.sqrt((m2 - m1**2) / n)
    assert abs(np.mean(x**2) - m2) < 5 * math.sqrt((m4 - m2**2) / n)
    one = sample(dist, NoiseStream(31), size=None)
    assert np.ndim(one) == 0 and one > 0


def test_other_gamma_shapes_draw_as_numpy_gamma():
    x = sample(Gamma(16.5, 1.0), NoiseStream(32), size=1000)
    assert np.array_equal(x, NoiseStream(32).generator().gamma(16.5, 1.0, size=1000))


@pytest.mark.parametrize("sigma", [1.0, 2.5, 1e-3, math.sqrt(0.75)])
def test_centred_normal_draws_are_bit_identical_to_numpy_normal(sigma):
    x = sample(Normal(0.0, sigma), NoiseStream(33), size=2**17)
    assert x.tobytes() == NoiseStream(33).generator().normal(0.0, sigma, size=2**17).tobytes()
    assert sample(Normal(0.0, sigma), NoiseStream(33)) == NoiseStream(33).generator().normal(0.0, sigma)


def test_dist_dict_roundtrip():
    for d in [Normal(0.0, 1.0), ChiSquare(1), Gamma(0.5, 2.0), InverseGamma(16.5, 147.5)]:
        assert dist_from_dict(dist_to_dict(d)) == d
    with pytest.raises(ParameterError):
        dist_from_dict({"dist": "cauchy"})


@pytest.mark.parametrize("make", [
    lambda: Normal(math.nan, 1.0),
    lambda: Normal(0.0, math.inf),
    lambda: ChiSquare(math.inf),
    lambda: Gamma(math.nan, 1.0),
    lambda: Gamma(0.5, math.inf),
    lambda: InverseGamma(math.inf, 1.0),
    lambda: InverseGamma(16.5, math.nan),
    lambda: dist_from_dict({"dist": "chi-square", "nu": True}),
    lambda: dist_from_dict({"dist": "normal", "mu": False, "sigma": 1.0}),
    lambda: dist_from_dict({"dist": "normal", "mu": 0.0, "sigma": True}),
    lambda: Gamma(True, 1.0),
    lambda: InverseGamma(16.5, True),
], ids=["normal-mu-nan", "normal-sigma-inf", "chi-square-nu-inf", "gamma-shape-nan", "gamma-rate-inf",
        "inverse-gamma-shape-inf", "inverse-gamma-rate-nan", "chi-square-nu-true", "normal-mu-false",
        "normal-sigma-true", "gamma-shape-true", "inverse-gamma-rate-true"])
def test_noise_laws_reject_non_finite_parameters(make):
    with pytest.raises(ParameterError, match="finite"):
        make()
