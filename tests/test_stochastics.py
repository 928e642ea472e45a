import math

import numpy as np
import pytest
from scipy import stats
from scipy.integrate import quad

from tvbounds import bounds
from tvbounds.errors import DomainError, ParameterError
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
    log_chi2_density,
    log_chi2_density_sup,
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


def test_abs_moment_nonexistent_raises():
    with pytest.raises(DomainError):
        abs_moment(InverseGamma(2.0, 1.0), 2)
    with pytest.raises(DomainError):
        abs_moment(InverseGamma(1.0, 1.0), 1)


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


def test_log_chi2_sup_closed_form():
    assert log_chi2_density_sup() == pytest.approx(1 / math.sqrt(2 * math.pi * math.e), rel=1e-15)


def test_log_chi2_sup_golden_section_oracle():
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
    assert max(f1, f2) == pytest.approx(log_chi2_density_sup(), abs=1e-9)


def test_log_chi2_stationary_at_mode():
    h = 1e-6
    deriv = (log_chi2_density(h) - log_chi2_density(-h)) / (2 * h)
    assert abs(deriv) < 1e-6


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


def test_dist_dict_roundtrip():
    for d in [Normal(0.0, 1.0), ChiSquare(1), Gamma(0.5, 2.0), InverseGamma(16.5, 147.5)]:
        assert dist_from_dict(dist_to_dict(d)) == d
    with pytest.raises(ParameterError):
        dist_from_dict({"dist": "cauchy"})
