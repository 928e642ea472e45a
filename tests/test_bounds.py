import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate, special, stats

from tvbounds.bounds import (
    BoundCertificate,
    DriftSpec,
    bound_eval,
    certificate_to_dict,
    drift_expected_distance,
    inverse_gamma_mode_height,
    iterations_to_epsilon,
    location_drift_constants,
    nonlinear_ar_D,
)
from tvbounds.errors import DomainError, NoContractionError, ParameterError
from tvbounds.models import (
    GARCH,
    LARCH,
    ARNormal1D,
    ARNormalD,
    AsymARCH,
    IndependentCoordinates,
    LocationGibbsTau,
    NonlinearAR,
    RegressionGibbsSigma,
)
from tvbounds.stochastics import ChiSquare, Gamma, InverseGamma, Normal, NoiseStream, abs_moment, density

from conftest import _certificate_from_dict
from oracles import (
    golden_section_max,
    mc_location_drift_fit,
    nonlinear_ar_D_search,
    nonlinear_ar_exact_two_step_ratio,
    nonlinear_ar_two_step_ratio,
    regression_gibbs_tv1_rate,
)

S_TREES = 295.43741935483877


# ---------------------------------------------------------------- bound_eval

@pytest.mark.literal
def test_bound_eval_asym_arch_example():
    cert = AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)).certificate(gap=5.0)
    assert bound_eval(cert, 7).raw == pytest.approx(0.5**7, rel=1e-12)
    assert bound_eval(cert, 7).raw == pytest.approx(0.0078125, abs=1e-9)


def test_bound_eval_zero_gap():
    cert = BoundCertificate(c=2.0, d=0.5, n0=0, gap=0.0)
    for n in (1, 2, 10):
        assert bound_eval(cert, n).raw == 0.0


@pytest.mark.literal
def test_bound_eval_regression_printed_coefficient():
    cert = BoundCertificate(c=0.06816454, d=4 / 335, n0=0, gap=1000.0)
    v = bound_eval(cert, 3).raw
    assert abs(v - 0.00972) < 1e-4
    assert v < 0.01


def test_bound_eval_clamps_to_one():
    cert = BoundCertificate(c=13.74027, d=1 / 31, n0=0, gap=18.12198)
    bv = bound_eval(cert, 1)
    assert bv.raw == pytest.approx(249.0, abs=0.01)
    assert bv.clamped == 1.0


def test_bound_eval_rejects_n_at_or_below_n0():
    cert = BoundCertificate(c=1.0, d=0.5, n0=1, gap=1.0)
    with pytest.raises(DomainError):
        bound_eval(cert, 1)


@pytest.mark.parametrize("n", [2.5, True])
def test_bound_eval_takes_only_an_integer_n(n):
    # n = 2.5 gave D^1.5 and n = True the bound at n = 1
    with pytest.raises(ParameterError, match="n must be an integer"):
        bound_eval(BoundCertificate(c=1.0, d=0.5, n0=0, gap=1.0), n)


@pytest.mark.parametrize("key", ["n0", "exp_offset", "exp_step"])
@pytest.mark.parametrize("value", [0.5, True])
def test_certificate_exponent_parameters_are_integers(key, value):
    # n0 = 0.5 would make exponent(3) 1.5, so bound_eval would take D^1.5
    with pytest.raises(ParameterError, match=f"{key} must be an integer"):
        BoundCertificate(**{"c": 1.0, "d": 0.5, "n0": 0, "gap": 1.0, key: value})
    cert = BoundCertificate(**{"c": 1.0, "d": 0.5, "n0": 0, "gap": 1.0, key: 2.0})
    assert type(getattr(cert, key)) is int and type(cert.exponent(5)) is int


@pytest.mark.parametrize("key, value", [("n0", -1), ("exp_offset", -1), ("exp_step", 0)])
def test_certificate_exponent_parameters_in_range(key, value):
    # exp_offset = -1 at D = 0 made bound_eval(cert, 1) raise ZeroDivisionError (0.0 ** -1)
    with pytest.raises(ParameterError, match=f"{key} must be >= "):
        BoundCertificate(**{"c": 1.0, "d": 0.0, "n0": 0, "gap": 1.0, key: value})


def test_bound_monotone_and_exact_ratio():
    certs = [
        BoundCertificate(c=13.74027, d=1 / 31, n0=0, gap=18.12198),
        GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)).certificate(0.1, -0.1, 0.0001, 0.01),
        ARNormal1D(0.5, math.sqrt(0.75)).certificate(1.0),
    ]
    for cert in certs:
        prev = bound_eval(cert, cert.n0 + 1).raw
        for n in range(cert.n0 + 2, cert.n0 + 40):
            cur = bound_eval(cert, n).raw
            assert cur < prev
            assert cur / prev == pytest.approx(cert.d, rel=1e-12)
            prev = cur


# ------------------------------------------------------ iterations_to_epsilon

@pytest.mark.literal
def test_iterations_location_example():
    cert = BoundCertificate(c=13.74027, d=1 / 31, n0=0, gap=18.12198)
    assert iterations_to_epsilon(cert, 0.01) == 4


@pytest.mark.literal
def test_iterations_garch_example():
    cert = GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)).certificate(0.1, -0.1, 0.0001, 0.01)
    assert iterations_to_epsilon(cert, 0.01) == 77


def test_iterations_zero_gap():
    cert = BoundCertificate(c=5.0, d=0.5, n0=2, gap=0.0)
    assert iterations_to_epsilon(cert, 0.01) == 3


def test_iterations_matches_naive_scan():
    for cert in [
        BoundCertificate(c=3.0, d=0.97, n0=0, gap=2.0),
        BoundCertificate(c=46.07, d=0.5, n0=0, gap=1.0, exp_offset=1),
        NonlinearAR().certificate(gap=1.0, d_squared=0.661),
    ]:
        for eps in (0.5, 0.01, 1e-4):
            n = cert.n0 + 1
            while bound_eval(cert, n).raw >= eps:
                n += 1
            assert iterations_to_epsilon(cert, eps) == n


@pytest.mark.parametrize("d, c, gap, n0, exp_offset, exp_step, eps, expected", [
    (1 - 2**-53, 1.0, 1.0, 0, 0, 1, 0.01, 41479685467187373),
    (1 - 2**-53, 3.0, 2.0, 5, 0, 2, 1e-4, 198196210980561590),
    (1 - 2**-52, 46.07, 1.0, 0, 1, 1, 0.5, 20371173445240747),
    (1 - 2**-52, 1e-3, 0.5, 0, 1, 3, 1e-6, 83964320148923538),
])
def test_iterations_next_to_d_one(d, c, gap, n0, exp_offset, exp_step, eps, expected):
    # the largest D below 1 needs about 2**53 * log(C gap / eps) iterations, past any scan;
    # expected: the answers of a search that jumps by logs, then scans
    cert = BoundCertificate(c=c, d=d, n0=n0, gap=gap, exp_offset=exp_offset, exp_step=exp_step)
    assert iterations_to_epsilon(cert, eps) == expected


# ------------------------------------------------- contraction and coalescing

def test_sideways_single_mode():
    # one mode: C is the noise density height 1/(sigma sqrt(2 pi))
    assert ARNormal1D(0.5, 1.0).certificate(1.0).c == pytest.approx(0.3989422804, abs=1e-9)
    assert ARNormal1D(0.5, math.sqrt(0.75)).certificate(1.0).c == pytest.approx(0.4606588660, abs=1e-9)


def test_random_coeff_constant():
    assert ARNormal1D(0.5, 1.0).certificate(1.0).d == 0.5
    assert ARNormal1D(-0.5, 1.0).certificate(1.0).d == 0.5


def test_random_coeff_numpy_scalar_is_a_constant():
    assert ARNormal1D(np.float32(0.5), 1.0).certificate(1.0).d == 0.5
    assert ARNormal1D(np.int64(0), 1.0).certificate(1.0).d == 0.0
    assert ARNormal1D(np.float32(-0.5), np.float64(1.0)).certificate(gap=1.0).d == 0.5


def test_random_coeff_gamma_products():
    # D = E|theta_1| = E[X] E[Y], the product of the two reduced-chain factors
    # regression: Gamma(p/2, C/2) x InverseGamma((k+p)/2, C/2)
    c = 26123.0
    d = abs_moment(Gamma(2.0, c / 2), 1) * abs_moment(InverseGamma(337 / 2, c / 2), 1)
    assert RegressionGibbsSigma(333, 4, c).certificate(gap=1.0).d == pytest.approx(d, rel=1e-12)
    assert d == pytest.approx(4 / 335, rel=1e-12)
    # location: Gamma(1/2, S/2) x InverseGamma((J+2)/2, S/2)
    d = abs_moment(Gamma(0.5, S_TREES / 2), 1) * abs_moment(InverseGamma(16.5, S_TREES / 2), 1)
    assert LocationGibbsTau(31, S_TREES).certificate(gap=1.0).d == pytest.approx(d, rel=1e-12)
    assert d == pytest.approx(1 / 31, rel=1e-12)


@pytest.mark.literal
def test_regression_rate_recorded_value():
    assert RegressionGibbsSigma(333, 4, 26123.0).certificate(gap=1.0).d == pytest.approx(0.0119403, abs=1e-7)


def test_random_coeff_no_contraction():
    with pytest.raises(NoContractionError):
        ARNormal1D(1.5, 1.0).certificate(1.0)


# ------------------------------------------------------- inverse-gamma height

def test_mode_height_hand_example():
    assert inverse_gamma_mode_height(1.0, 2.0) == pytest.approx(2 * math.exp(-2), rel=1e-12)


@pytest.mark.parametrize("alpha,beta", [(1.0, 2.0), (15.0, S_TREES / 2), (170.5, 26123.0 / 2)])
def test_mode_height_matches_golden_section(alpha, beta):
    mode = beta / (alpha + 1)
    oracle = golden_section_max(lambda x: density(InverseGamma(alpha, beta), x), mode / 4, mode * 4)
    assert inverse_gamma_mode_height(alpha, beta) == pytest.approx(oracle, rel=1e-8)


@pytest.mark.parametrize("alpha,beta", [(0.01, 2.0), (15.0, S_TREES / 2), (170.5, 26123.0 / 2)])
def test_mode_height_matches_scipy(alpha, beta):
    oracle = stats.invgamma(alpha, scale=beta).pdf(beta / (alpha + 1))
    assert inverse_gamma_mode_height(alpha, beta) == pytest.approx(oracle, rel=1e-12)


@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.5, 16.5, 170.5, 500.0])
@pytest.mark.parametrize("beta", [0.5, S_TREES / 2, 26123.0 / 2])
def test_mode_height_matches_the_density_at_the_mode(alpha, beta):
    # the math form against the numpy density, at shapes up to 500
    mode = beta / (alpha + 1)
    assert inverse_gamma_mode_height(alpha, beta) == pytest.approx(
        density(InverseGamma(alpha, beta), mode), rel=1e-14, abs=0)
    for bad in [(0.0, beta), (alpha, -1.0), (math.nan, beta), (alpha, True)]:
        with pytest.raises(ParameterError):
            inverse_gamma_mode_height(*bad)


@pytest.mark.parametrize("j,s", [(3, 1.0), (5, 10.0), (31, S_TREES)])
def test_location_k_closed_form_matches_scipy_gamma(j, s):
    oracle = (s / 2) ** ((j - 1) / 2) / special.gamma((j - 1) / 2) * (s / (j + 1)) ** (-(j - 3) / 2) * math.exp(-(j + 1) / 2)
    assert LocationGibbsTau(j, s).certificate(gap=1.0).c == pytest.approx(oracle, rel=1e-12)


def test_mode_height_is_global_max(rng):
    alpha, beta = 16.5, S_TREES / 2
    h = inverse_gamma_mode_height(alpha, beta)
    x = rng.uniform(1e-3, 60.0, size=1000)
    assert np.all(density(InverseGamma(alpha, beta), x) <= h + 1e-12)


# --------------------------------------------------------- Gibbs certificates

def test_regression_certificate_rate_exact():
    cert = RegressionGibbsSigma(333, 4, 26123.0).certificate(gap=1000.0)
    assert Fraction(4, 335) == Fraction(4, 333 + 4 - 2)
    assert cert.d == pytest.approx(4 / 335, rel=0, abs=0)
    assert cert.n0 == 0


@pytest.mark.parametrize("k,p,c_stat", [(333, 4, 26123.0), (32, 1, 295.4374194), (10, 2, 5.0)])
def test_regression_certificate_c_dominates_the_one_step_tv_rate(k, p, c_stat):
    # near r = 0, where the one-step TV per unit distance peaks; the second
    # point is the trees-girth location chain (k = J + 1, C = S)
    rate = regression_gibbs_tv1_rate(k, p, c_stat, r=1e-9, delta=1e-3)
    c = RegressionGibbsSigma(k, p, c_stat).certificate(gap=1.0).c
    assert rate <= c
    if (k, p) == (333, 4):
        # the doctoral-delay example: the rate lies above C/100 (C = 0.068),
        # so a C cut 100-fold fails here
        assert rate > c * 1e-2


@pytest.mark.literal
def test_regression_one_step_tv_rate_recorded_value():
    # the doctoral-delay example's rate agrees with the lattice sup of TV_1/dist
    assert regression_gibbs_tv1_rate(333, 4, 26123.0, r=1e-9, delta=1e-3) == pytest.approx(7.9256e-4, rel=1e-4)


def test_regression_certificate_boundary_no_contraction():
    with pytest.raises(NoContractionError):
        RegressionGibbsSigma(2, 1, 10.0).certificate(gap=1.0)


@pytest.mark.literal
def test_location_certificate_reference_constant(trees):
    j, _, s = trees
    cert = LocationGibbsTau(j, s).certificate(gap=18.12198)
    assert cert.c == pytest.approx(13.74027, abs=0.01)
    assert cert.d == pytest.approx(1 / 31, rel=1e-15)
    # mode-height variant agrees with its own numeric maximization
    oracle = golden_section_max(lambda x: density(InverseGamma((j - 1) / 2, s / 2), x), 0.5, 60.0)
    assert cert.details["c_mode_height"] == pytest.approx(oracle, rel=1e-8)
    # and differs from the closed form by exactly ((J+1)/S)^2
    assert cert.details["c_mode_height"] == pytest.approx(cert.c * ((j + 1) / s) ** 2, rel=1e-10)


def test_location_certificate_rejects_small_j():
    with pytest.raises(ParameterError):
        LocationGibbsTau(2, 10.0)


# ------------------------------------------------------------ drift condition

@pytest.mark.literal
def test_drift_expected_distance_reference_constants():
    drift = DriftSpec(0.6583702, 106.3874, 0.5248723)
    v = drift_expected_distance(drift, abs(1 + 0.5248723))
    # direct evaluation sits near 19.17, not the recorded 18.12198
    assert v == pytest.approx(19.1717235, abs=1e-6)
    assert abs(v - 18.12198) > 1.0


def test_drift_expected_distance_degenerate_cases():
    assert drift_expected_distance(DriftSpec(0.9, 0.0, 1.0), 2.5) == 2.5
    assert drift_expected_distance(DriftSpec(0.5, 2.0, 0.0), 0.0) == pytest.approx(2.0, rel=1e-12)


def test_location_drift_constants_consistent_h(trees):
    j, _, s = trees
    drift = location_drift_constants(j, s)
    assert isinstance(drift, DriftSpec)
    assert drift.h == pytest.approx(s / (j + 1), rel=1e-12)
    assert drift.lam == pytest.approx(3 / (j * (j - 2)), rel=1e-12)
    # matching identity: the linear coefficient 2 E[X](E[Y^2] - h E[Y]) equals 2*lam*h
    x, y = Gamma(0.5, s / 2), InverseGamma((j + 2) / 2, s / 2)
    lin = 2 * abs_moment(x, 1) * (abs_moment(y, 2) - drift.h * abs_moment(y, 1))
    assert lin == pytest.approx(2 * drift.lam * drift.h, rel=1e-9)


@pytest.mark.literal
def test_location_drift_reference_lambda_not_reproducible(trees):
    j, _, s = trees
    drift = location_drift_constants(j, s)
    assert abs(drift.lam - 0.6583702) > 0.5  # the recorded value is far from E[X^2]E[Y^2]


def test_mc_drift_fit_smoke(trees):
    j, _, s = trees
    drift = location_drift_constants(j, s)
    quad = mc_location_drift_fit(LocationGibbsTau(j, s), NoiseStream(3), n_draws=100_000)
    assert isinstance(quad, float)
    assert quad == pytest.approx(drift.lam, rel=0.10)


def _polyfit_drift_oracle(model, stream, n_draws):
    """The grid estimator: sample means of (X Y v + Y + h)^2 over one shared
    draw set at 20 values v in [0.5, 20], least-squares fitted by a quadratic."""
    h = location_drift_constants(model.j, model.s).h
    x, y = model.draw(stream.generator(), n_draws)
    grid = np.linspace(0.5, 20.0, 20)
    means = np.array([np.mean((x * y * v + y + h) ** 2) for v in grid])
    return float(np.polyfit(grid, means, 2)[0])


@pytest.mark.parametrize("seed", [1, 3, 11])
def test_mc_drift_fit_equals_the_grid_polyfit(trees, seed):
    j, _, s = trees
    model, n = LocationGibbsTau(j, s), 300_001  # three chunks, the last one short
    quad = mc_location_drift_fit(model, NoiseStream(seed, 771), n_draws=n)
    assert quad == pytest.approx(_polyfit_drift_oracle(model, NoiseStream(seed, 771), n), rel=1e-12, abs=0)


def test_mc_drift_fit_memory_stays_chunk_sized(trees):
    j, _, s = trees
    tracemalloc.start()
    try:
        mc_location_drift_fit(LocationGibbsTau(j, s), NoiseStream(1, 771), n_draws=10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 6e6  # 10**6 draws of X and Y alone take 16 MB


@pytest.mark.parametrize("n_draws", [0, -3, 2.5, True, "100"])
def test_mc_drift_fit_rejects_a_non_positive_or_non_integral_draw_count(trees, n_draws):
    j, _, s = trees
    with pytest.raises(ParameterError, match="n_draws"):
        mc_location_drift_fit(LocationGibbsTau(j, s), NoiseStream(1), n_draws=n_draws)


def test_mc_drift_fit_needs_a_noise_stream_and_j_at_least_5(trees):
    j, _, s = trees
    with pytest.raises(ParameterError, match="NoiseStream"):
        mc_location_drift_fit(LocationGibbsTau(j, s), NoiseStream(1).generator(), n_draws=10)
    with pytest.raises(ParameterError, match="J >= 5"):
        mc_location_drift_fit(LocationGibbsTau(4, s), NoiseStream(1), n_draws=10)


@pytest.mark.parametrize("model", [RegressionGibbsSigma(333, 4, 26123.0), ARNormal1D(0.5, 1.0)],
                         ids=["regression-gibbs", "ar1"])
def test_mc_drift_fit_rejects_a_model_without_location_statistics(model):
    # it read model.j and failed with a bare AttributeError
    with pytest.raises(ParameterError, match="mc_location_drift_fit needs a location model"):
        mc_location_drift_fit(model, NoiseStream(1), n_draws=10)


# ------------------------------------------------- independent coordinates, d

@pytest.mark.literal
def test_independent_coordinates_example():
    amplitude = math.sqrt(2 / (3 * math.pi))
    cert = IndependentCoordinates(amplitude, 0.5, 100).certificate(1.0)
    assert (cert.c, cert.d) == (100 * amplitude, 0.5)
    assert cert.c == pytest.approx(100 * 0.4606588660, abs=1e-6)
    v = bound_eval(cert, 14).raw
    assert v == pytest.approx(0.0028116386, abs=1e-8)
    assert v < 0.01
    assert iterations_to_epsilon(cert, 0.01) == 13


def test_independent_coordinates_identity():
    cert = IndependentCoordinates(0.3, 0.5, 1).certificate(1.0)
    assert (cert.c, cert.d) == (0.3, 0.5)


def test_independent_coordinates_dimension_must_be_integral():
    for d in (100.5, "100", None, True, 0):
        with pytest.raises(ParameterError):
            IndependentCoordinates(0.3, 0.5, d)
    cert = IndependentCoordinates(0.3, 0.5, 100.0).certificate(1.0)
    assert type(cert.details["d"]) is int and cert.c == IndependentCoordinates(0.3, 0.5, 100).certificate(1.0).c


# ------------------------------------------------------------------ AR(1)

def test_ar_normal_1d_rejects_nonpositive_sigma():
    for sigma in (0.0, -1.0, math.inf):
        with pytest.raises(ParameterError, match="sigma"):
            ARNormal1D(0.5, sigma)


def test_ar_normal_1d_rejects_non_real_coefficient():
    with pytest.raises(ParameterError, match="'x'"):
        ARNormal1D("x", 1.0)


# ----------------------------------------------------------- vector AR bound

def tridiagonal(d, diag, off):
    return np.diag(np.full(d, diag)) + np.diag(np.full(d - 1, off), 1) + np.diag(np.full(d - 1, off), -1)


@pytest.mark.literal
def test_ar_normal_d_tridiagonal_rate_and_coefficient():
    d = 100
    a = tridiagonal(d, 0.5, 0.125)
    cert = ARNormalD(a, a).certificate(np.ones(d), np.zeros(d))
    assert cert.d == pytest.approx(0.5 + 0.25 * math.cos(math.pi / 101), abs=1e-12)
    assert cert.d == pytest.approx(0.7498791, abs=1e-7)
    assert cert.c == pytest.approx(98782.31, rel=0.01)
    assert iterations_to_epsilon(cert, 0.01) == 56


def test_ar_normal_d_one_dimensional_collapse():
    cert = ARNormalD(np.array([[0.5]]), np.array([[1.0]])).certificate([2.0], [0.5])
    assert cert.d == 0.5
    assert cert.c == pytest.approx(math.sqrt(1 / (2 * math.pi)) * 1.5, rel=1e-12)


def exact_tv_gaussian_ar(a, sigma, x0, x0_prime, n_max):
    """Exact TV at n = 1..n_max between two copies of X_n = A X_{n-1} + Sigma Z_n
    started at x0 and x0'.  Both laws are normal with the common covariance
    Sigma_n = sum_{k<n} A^k Sigma Sigma^T A^kT and means that differ by
    m = A^n (x0 - x0'), so TV = 2 Phi(delta/2) - 1 = erf(delta / (2 sqrt 2))
    with delta^2 = m^T Sigma_n^{-1} m."""
    a, s = np.atleast_2d(a).astype(float), np.atleast_2d(sigma).astype(float)
    noise_cov = s @ s.T
    diff = np.atleast_1d(np.asarray(x0, dtype=float) - np.asarray(x0_prime, dtype=float))
    cov, a_k, out = np.zeros_like(a), np.eye(len(a)), []
    for _ in range(n_max):
        cov = cov + a_k @ noise_cov @ a_k.T
        a_k = a_k @ a
        m = a_k @ diff
        out.append(math.erf(math.sqrt(m @ np.linalg.solve(cov, m)) / (2 * math.sqrt(2))))
    return out


def _ar_d_tridiagonal_bound_and_exact_tv():
    """The d = 100 tridiagonal AR example from ones vs zeros: its certificate
    and its exact TV at n = 1..79."""
    d = 100
    a = tridiagonal(d, 0.5, 0.125)
    x0, x0p = np.ones(d), np.zeros(d)
    return ARNormalD(a, a).certificate(x0, x0p), exact_tv_gaussian_ar(a, a, x0, x0p, 79)


def test_ar_normal_d_bound_dominates_exact_tv():
    cert, exact = _ar_d_tridiagonal_bound_and_exact_tv()
    assert min(bound_eval(cert, n).raw - tv for n, tv in enumerate(exact, start=1)) > 0


@pytest.mark.literal
def test_ar_normal_d_recorded_values():
    cert, exact = _ar_d_tridiagonal_bound_and_exact_tv()
    margins = [bound_eval(cert, n).raw - tv for n, tv in enumerate(exact, start=1)]
    assert min(margins) == pytest.approx(1.315e-5, rel=1e-3)
    assert min(n for n, tv in enumerate(exact, start=1) if tv < 0.01) == 21
    assert iterations_to_epsilon(cert, 0.01) == 56


def _ar_half_exact_tv(x0, x0p, n):
    """Exact TV at iteration n between two copies of
    X_n = X_{n-1}/2 + sqrt(3/4) Z_n started at known points:

        1 - 2 Phi(-|x0 - x0'| / (2^{n+1} sqrt(1 - 4^{-n})))
    """
    delta = abs(x0 - x0p)
    if delta == 0.0:
        return 0.0
    scale = 2.0 ** (n + 1) * math.sqrt(1.0 - 0.25**n)
    return 1.0 - math.erfc(delta / (scale * math.sqrt(2.0)))


def test_exact_tv_gaussian_ar_matches_ar1_closed_form():
    for x0, x0p in [(0.0, 1.0), (1.0, 0.0), (-2.0, 3.0), (0.3, 0.2), (10.0, -10.0)]:
        exact = exact_tv_gaussian_ar(0.5, math.sqrt(0.75), x0, x0p, 59)
        for n, tv in enumerate(exact, start=1):
            assert abs(tv - _ar_half_exact_tv(x0, x0p, n)) <= 1e-15


def test_ar1_family_exact_tv_matches_closed_forms():
    standard = ARNormal1D(0.5, math.sqrt(0.75))
    for x0, x0p in [(0.0, 1.0), (-2.0, 3.0), (0.3, 0.2), (10.0, -10.0), (4.0, 4.0)]:
        for n in range(1, 60):
            assert abs(standard.exact_tv(x0, x0p, n) - _ar_half_exact_tv(x0, x0p, n)) <= 1e-15
    # any a (|a| >= 1 included) and sigma, against the covariance-sum formula
    for a, sigma in [(0.8, 1.0), (-0.3, 2.0), (1.0, 0.5), (1.1, 0.7)]:
        exact = exact_tv_gaussian_ar(a, sigma, 0.5, -1.0, 30)
        for n, tv in enumerate(exact, start=1):
            assert ARNormal1D(a, sigma).exact_tv(0.5, -1.0, n) == pytest.approx(tv, rel=1e-12, abs=1e-15)
    assert NonlinearAR().exact_tv(0.0, 1.0, 1) is None


def test_ar1_exact_tv_of_an_explosive_chain_does_not_overflow():
    # for |a| > 1 the TV tends to 1 - erfc(|x0 - x0'| sqrt(a^2 - 1) / (2 sqrt(2) sigma))
    limit = 1.0 - math.erfc(math.sqrt(1.5**2 - 1) / (2 * math.sqrt(2)))
    assert limit == pytest.approx(0.4238498780, abs=1e-10)
    for a in (1.5, -1.5):
        model = ARNormal1D(a, 1.0)
        assert abs(model.exact_tv(0.0, 1.0, 900) - limit) <= 1e-12
        for n in range(1, 51):
            v = sum(a ** (2 * k) for k in range(n))
            direct = 1.0 - math.erfc(abs(a**n * (0.0 - 1.0)) / (2 * math.sqrt(2 * v)))
            assert abs(model.exact_tv(0.0, 1.0, n) - direct) <= 1e-12


def test_ar_normal_d_shapes_must_match_A():
    a = 0.5 * np.eye(2)
    # the family rejects a Sigma of another shape; the certificate, starts of another shape
    with pytest.raises(ParameterError, match=r"Sigma shape \(3, 3\) must match A shape \(2, 2\)"):
        ARNormalD(a, np.eye(3))
    model = ARNormalD(a, np.eye(2))
    bad = [
        ([1.0, 2.0, 3.0], np.zeros(3), r"start x0 must be a list of 2 numbers.*got \[1.0, 2.0, 3.0\]"),
        (1.0, 0.0, r"start x0 must be a list of 2 numbers.*got 1.0"),
        (np.ones(2), np.zeros((1, 2)), r"start x0p must be a list of 2 numbers.*got array\(\[\[0., 0.\]\]\)"),
        (["abc", 1.0], np.zeros(2), r"start x0 must be a list of 2 numbers.*got \['abc', 1.0\]"),
    ]
    for x0, x0p, message in bad:
        with pytest.raises(ParameterError, match=message):
            model.certificate(x0, x0p)


def test_ar_normal_d_errors():
    with pytest.raises(NoContractionError):
        ARNormalD(np.eye(2), np.eye(2)).certificate(np.ones(2), np.zeros(2))
    # the family rejects matrices that are not square or not finite
    bad_family = [
        (np.full((2, 3), 0.1), np.eye(2)),  # non-square A
        (np.array([[0.5, math.nan], [math.nan, 0.5]]), np.eye(2)),
        (np.diag([0.5, math.inf]), np.eye(2)),
        (0.5 * np.eye(2), np.diag([1.0, math.nan])),
        (0.5 * np.eye(2), np.full((2, 3), 0.1)),  # non-square Sigma
    ]
    for a, sigma in bad_family:
        with pytest.raises(ParameterError):
            ARNormalD(a, sigma)
    # the certificate rejects an asymmetric A and a Sigma it cannot invert
    bad_certificate = [
        (np.array([[0.5, 0.2], [0.0, 0.5]]), np.eye(2)),  # asymmetric A
        (0.5 * np.eye(2), np.zeros((2, 2))),
        (0.5 * np.eye(2), np.array([[1.0, 2.0], [2.0, 4.0]])),  # singular Sigma
        (0.5 * np.eye(2), np.diag([1.0, 1e-13])),  # condition 1e13
    ]
    for a, sigma in bad_certificate:
        model = ARNormalD(a, sigma)
        with pytest.raises(ParameterError):
            model.certificate(np.ones(2), np.zeros(2))


# ------------------------------------------------------------- nonlinear AR

def _nonlinear_ar_lattice_D(points: int) -> float:
    """sqrt of the sup of the closed-form ratio on a points x points lattice
    of [-4 pi, 4 pi]^2, pairs closer than 0.5 excluded: nonlinear_ar_D_search's
    coarse search at a finer lattice and without its zoom."""
    ax = np.linspace(-4 * math.pi, 4 * math.pi, points)
    best = -math.inf
    for i in range(0, points, 500):  # row blocks keep the memory small
        xs = ax[i : i + 500, None]
        r = np.where(np.abs(xs - ax) >= 0.5, nonlinear_ar_two_step_ratio(xs, ax[None, :]), -np.inf)
        best = max(best, float(r.max()))
    return math.sqrt(best)


@pytest.mark.literal
def test_nonlinear_ar_D_in_band():
    d = nonlinear_ar_D()
    assert 0.808 <= d <= 0.818
    assert d * d == pytest.approx(0.661, abs=0.005)
    # zooming may only raise D: it dominates the 2001-point lattice sup and
    # 0.8139256, the Nelder-Mead refinement of that lattice's best point
    assert d >= _nonlinear_ar_lattice_D(2001)
    assert d >= 0.8139256


def test_nonlinear_ar_D_search_reproduces_the_pinned_value():
    # numpy's sin and cos may round differently on another platform
    assert abs(nonlinear_ar_D_search() - nonlinear_ar_D()) <= 4 * math.ulp(nonlinear_ar_D())


def test_nonlinear_ar_ratio_continuous_near_diagonal():
    vals = nonlinear_ar_two_step_ratio(np.array([2.0, -3.67, 8.79]), np.array([2.0 + 1e-6, -3.67 + 1e-6, 8.79 + 1e-6]))
    assert np.all(np.isfinite(vals))
    assert np.all(vals < 1.0)


def test_nonlinear_ar_envelope_dominates_exact_ratio():
    """The certificate rate must upper-bound the exact two-step
    expected-gap ratio everywhere (quadrature oracle)."""
    d2 = nonlinear_ar_D() ** 2
    ax = np.linspace(-4 * math.pi, 4 * math.pi, 401)
    x = ax[:, None]
    y = ax[None, :]
    mask = np.abs(x - y) > 1e-9
    exact = np.where(mask, nonlinear_ar_exact_two_step_ratio(x, y), 0.0)
    assert float(exact.max()) <= d2 + 1e-9
    # ... and pointwise the closed form dominates the exact ratio
    closed = np.where(mask, nonlinear_ar_two_step_ratio(x, y), 0.0)
    assert np.all(exact <= closed + 1e-9)


def test_nonlinear_ar_grid_refinement_stable():
    d_coarse = _nonlinear_ar_lattice_D(1001)
    d_fine = _nonlinear_ar_lattice_D(2001)
    assert d_fine >= d_coarse - 1e-12  # grid sup is nondecreasing under refinement
    assert abs(d_fine - d_coarse) < 1e-3


@pytest.mark.literal
def test_nonlinear_ar_certificate_reference_rate():
    cert = NonlinearAR().certificate(gap=1.0, d_squared=0.661)
    assert bound_eval(cert, 20).raw < 0.01
    assert bound_eval(cert, 20).raw == pytest.approx(1 / math.sqrt(2 * math.pi) * 0.661**10, rel=1e-12)
    assert bound_eval(cert, 16).raw > 0.01
    # floor(n/2) exponent: consecutive evaluations move in steps of two
    assert bound_eval(cert, 20).raw == bound_eval(cert, 21).raw
    assert iterations_to_epsilon(cert, 0.01) == 18


# ------------------------------------------------------------------- LARCH

def test_larch_certificate_chi_square_coefficient():
    cert = LARCH(1.0, 0.5, ChiSquare(1)).certificate(gap=1.2)
    assert cert.c == pytest.approx(1 / math.sqrt(8 * math.pi * math.e), abs=1e-9)
    assert cert.d == pytest.approx(0.5, rel=1e-12)


def test_larch_numeric_sup_matches_closed_form():
    # the log of a chi-square(1) = Gamma(1/2, 1/2) variable has density
    # (2 pi)^-1/2 exp((x - e^x)/2), whose height at its mode x = 0 is
    # 1/sqrt(2 pi e); the certificate's height must land on it
    sup = 1 / math.sqrt(2 * math.pi * math.e)
    for z in (ChiSquare(1), Gamma(0.5, 0.5)):
        cert = LARCH(1.0, 0.5, z).certificate(gap=1.0)
        assert cert.details["log_noise_density_sup"] == pytest.approx(sup, rel=1e-12)
        assert cert.c == pytest.approx(0.5 * sup, rel=1e-12)


@pytest.mark.parametrize("rate", [1e-20, 1e-6, 1.0, 1e6, 1e20])
def test_larch_coefficient_is_free_of_the_noise_rate(rate):
    # log of a Gamma(1, rate) variable peaks at log(1/rate) with height 1/e
    # whatever the rate; beta0, beta1 scale with it so that D = 1/4
    cert = LARCH(rate / 2, rate / 4, Gamma(1.0, rate)).certificate(gap=1.0)
    assert cert.c == pytest.approx(0.5 * math.exp(-1), rel=1e-14)
    assert cert.d == pytest.approx(0.25, rel=1e-12)


def test_larch_no_contraction():
    with pytest.raises(NoContractionError):
        LARCH(1.0, 2.0, ChiSquare(1)).certificate(gap=1.0)


def test_larch_rejects_sign_changing_noise():
    with pytest.raises(ParameterError):
        LARCH(1.0, 0.5, Normal(0.0, 1.0))


# --------------------------------------------------------------- asym ARCH

def test_asym_arch_jensen_and_exact_rates():
    cert = AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)).certificate(gap=5.0)
    assert cert.d == 0.5
    assert cert.details["d_exact"] == pytest.approx(0.5 * math.sqrt(2 / math.pi), rel=1e-12)
    exact = AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)).certificate(gap=5.0, jensen=False)
    assert exact.d == pytest.approx(0.3989422804, abs=1e-9)


def test_asym_arch_jensen_must_be_a_bool():
    for jensen in ("no", 0, None):
        with pytest.raises(ParameterError):
            AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)).certificate(gap=5.0, jensen=jensen)


def test_asym_arch_zero_slope_couples_immediately():
    cert = AsymARCH(0.0, 3.0, 5.0, Normal(0.0, 1.0)).certificate(gap=5.0)
    assert cert.d == 0.0
    for n in (2, 3, 10):
        assert bound_eval(cert, n).raw == 0.0


def _scaled_gamma_tv(shape: float, s1: float, s2: float) -> float:
    """TV between s1 G and s2 G, G ~ Gamma(shape, 1) and s1 < s2, by quadrature
    on either side of the one point where the two densities cross."""
    cross = shape * math.log(s2 / s1) / (1 / s1 - 1 / s2)

    def gap(y):
        return abs(stats.gamma.pdf(y, shape, scale=s1) - stats.gamma.pdf(y, shape, scale=s2))

    return 0.5 * sum(integrate.quad(gap, lo, hi, epsabs=1e-15, epsrel=1e-10, limit=200)[0]
                     for lo, hi in ((0.0, cross), (cross, math.inf)))


@pytest.mark.parametrize("shape", [1, 5, 20, 26, 100])
def test_asym_arch_coefficient_holds_wherever_the_certificate_is_built(shape):
    # X_1 = s(x) Z with s(x) = sqrt((a x + b)^2 + c^2), whose log has its
    # steepest slope |a|/(2|c|) where a x + b = |c|: x = 400 here.  There
    # TV_1/dist is sup f_{log Z} |a|/(2|c|), within C = |a|/|c| only while
    # that height is at most 2, which Gamma noise passes up to shape ~25
    model = AsymARCH(0.005, 3.0, 5.0, Gamma(shape, 1.0))
    s1, s2 = (math.hypot(model.a * x + model.b, model.c) for x in (400.0, 400.01))
    ratio = _scaled_gamma_tv(shape, s1, s2) / 0.01
    assert ratio == pytest.approx(model.z.log_scale_sup() * abs(model.a) / (2 * abs(model.c)), rel=1e-4)
    if shape <= 20:
        assert ratio <= model.certificate(gap=1.0).c
    else:
        assert ratio > abs(model.a) / abs(model.c)
        with pytest.raises(DomainError, match="log"):
            model.certificate(gap=1.0)


# -------------------------------------------------------------------- GARCH

@pytest.mark.literal
def test_garch_certificate_constants():
    cert = GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)).certificate(0.1, -0.1, 0.0001, 0.01)
    assert cert.details["coefficient"] == pytest.approx(
        math.sqrt(0.7922 * abs(0.01**2 - 0.1**2) / 0.13), rel=1e-12
    )
    assert cert.details["coefficient"] == pytest.approx(0.2456, abs=5e-4)
    assert cert.d == pytest.approx(math.sqrt(0.9188), abs=1e-12)
    assert cert.n0 == 1


def test_garch_identical_initials_bound_zero():
    cert = GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)).certificate(0.1, 0.1, 0.01, 0.01)
    for n in (2, 5, 30):
        assert bound_eval(cert, n).raw == 0.0


def test_garch_memoryless_bound_zero():
    cert = GARCH(0.13, 0.0, 0.0, Normal(0.0, 1.0)).certificate(0.1, -0.2, 0.01, 0.3)
    assert cert.d == 0.0
    for n in (2, 5):
        assert bound_eval(cert, n).raw == 0.0


def test_garch_no_contraction():
    with pytest.raises(NoContractionError):
        GARCH(0.13, 0.5, 0.8, Normal(0.0, 1.0)).certificate(0.1, -0.1, 0.0001, 0.01)


# -------------------------------------------------------------- serialization

def test_certificate_json_roundtrip():
    certs = [
        GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)).certificate(0.1, -0.1, 0.0001, 0.01),
        NonlinearAR().certificate(gap=1.0, d_squared=0.661),
        ARNormal1D(0.5, math.sqrt(0.75)).certificate(1.0),
    ]
    for cert in certs:
        d = certificate_to_dict(cert)
        back = _certificate_from_dict(d)
        for n in range(cert.n0 + 1, cert.n0 + 6):
            assert bound_eval(back, n) == bound_eval(cert, n)
    d = certificate_to_dict(certs[0])
    assert set(d) >= {"C", "D", "n0", "gap", "family", "notes"}
