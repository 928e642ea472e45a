import json
import math

import numpy as np
import pytest

from tvbounds import tvlab
from tvbounds.errors import ParameterError, StateError
from tvbounds.models import (
    ARNormal1D,
    ARNormalD,
    AsymARCH,
    FAMILIES,
    GARCH,
    GarchState,
    IndependentCoordinates,
    LARCH,
    LocationGibbsTau,
    NonlinearAR,
    RegressionGibbsSigma,
    draw_innovations,
    model_from_dict,
    model_to_dict,
    step,
)
from tvbounds.stochastics import DISTS, ChiSquare, Gamma, InverseGamma, Normal, NoiseStream, sample

from oracles import (CoupledState, couple_step, fresh_like, full_step, full_sweep, innovations_from_full,
                     vector_ar_couple_step)

S_TREES = 295.43741935483877


def test_step_ar1_fixed_point():
    m = ARNormal1D(0.5, math.sqrt(0.75))
    assert step(m, 0.0, 0.0, np.empty(())) == 0.0


def test_step_nonlinear_ar_at_pi():
    assert step(NonlinearAR(), math.pi, 0.0, np.empty(())) == pytest.approx(math.pi / 2, rel=1e-15)


def test_step_garch_volatility_recursion():
    m = GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
    out = step(m, GarchState(0.1, 0.0001), 0.0, GarchState(np.empty(()), np.empty(())))
    assert out.s2 == pytest.approx(0.13 + 0.1266 * 0.01 + 0.7922 * 0.0001, rel=1e-12)
    assert out.s2 == pytest.approx(0.13134, abs=1e-5)


def test_garch_start_needs_nonnegative_sigma2():
    m = GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
    with pytest.raises(StateError):
        m.make_state(0.1, -1.0)
    with pytest.raises(StateError):
        m.make_state(np.array([0.1, 0.2]), np.array([0.01, -1e-300]))
    assert m.make_state(0.1, 0.0) == GarchState(0.1, 0.0)


@pytest.mark.parametrize("model,x,s2,error", [
    pytest.param(LocationGibbsTau(31, S_TREES), 0.0, None, StateError, id="location-gibbs-0"),
    pytest.param(RegressionGibbsSigma(333, 4, 26123.0), 0.0, None, StateError, id="regression-gibbs-0"),
    pytest.param(GARCH(0.13, 0.1266, 0.7922), 0.1, -1.0, StateError, id="garch-s2-minus-1"),
    pytest.param(LARCH(1.0, 0.5, ChiSquare(1)), -1.0, None, StateError, id="larch-minus-1"),
])
def test_make_state_rejects_a_start_outside_the_state_space(model, x, s2, error):
    with pytest.raises(error):
        model.make_state(x, s2)
    with pytest.raises(error):  # one bad path among good ones
        model.make_state(np.array([2.0, x]), None if s2 is None else np.array([0.01, s2]))


def _as_numpy(v):
    return None if v is None else np.bool_(v) if isinstance(v, bool) else np.float64(v)


@pytest.mark.parametrize("model,x,s2,error", [
    pytest.param(ARNormal1D(0.5, 1.0), math.nan, None, ParameterError, id="ar1-nan"),
    pytest.param(ARNormal1D(0.5, 1.0), True, None, ParameterError, id="ar1-bool"),
    pytest.param(GARCH(0.13, 0.1266, 0.7922), 0.1, math.nan, ParameterError, id="garch-s2-nan"),
    pytest.param(GARCH(0.13, 0.1266, 0.7922), 0.1, False, ParameterError, id="garch-s2-bool"),
    pytest.param(GARCH(0.13, 0.1266, 0.7922), 0.1, -1e-300, StateError, id="garch-s2-negative"),
    pytest.param(LocationGibbsTau(31, S_TREES), 0.0, None, StateError, id="location-gibbs-0"),
    pytest.param(RegressionGibbsSigma(333, 4, 26123.0), -1.0, None, StateError, id="regression-gibbs-negative"),
    pytest.param(LARCH(1.0, 0.5, ChiSquare(1)), -1e-300, None, StateError, id="larch-negative"),
])
def test_start_checks_reject_the_same_scalars_with_or_without_numpy(model, x, s2, error):
    # a real number, Python's or numpy's, takes the checks' scalar path, without
    # numpy; a numpy bool and a 0-d array take the array path; an array of one
    # path is a state but not a start
    for wrap in (lambda v: v, _as_numpy, lambda v: None if v is None else np.array(_as_numpy(v))):
        with pytest.raises(error):
            model.start_state(wrap(x), wrap(s2))
    with pytest.raises(ParameterError):  # one path's start is a number, not an array
        model.start_state([x], s2)
    if error is StateError:
        for wrap in (lambda v: v, _as_numpy, lambda v: None if v is None else np.array([v])):
            with pytest.raises(StateError):
                model.make_state(wrap(x), wrap(s2))
    assert model.start_state(1.5, None if s2 is None else 0.5) is not None


# every scalar family, each at a valid parameter point; a start drawn from
# (0.5, 3) is inside every family's state domain
STEP_FAMILIES = {
    "ar1": ARNormal1D(0.5, math.sqrt(0.75)),
    "nonlinear-ar": NonlinearAR(),
    "larch": LARCH(1.0, 0.5, ChiSquare(1)),
    "asym-arch": AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)),
    "garch": GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0)),
    "location-gibbs": LocationGibbsTau(31, S_TREES),
    "regression-gibbs": RegressionGibbsSigma(333, 4, 26123.0),
}


def _garch_reference(m, s, z):
    s2 = m.alpha2 + m.beta2 * np.asarray(s.x) ** 2 + m.gamma2 * np.asarray(s.s2)
    return GarchState(np.sqrt(s2) * z, s2)


# each transition as one numpy expression: the order of IEEE operations
# that the in-place steps keep, bit for bit (ar1's draw is already the
# product sigma Z)
REFERENCE_STEPS = {
    "ar1": lambda m, s, z: m.a * s + z,  # z is the scaled draw sigma Z
    "nonlinear-ar": lambda m, s, z: 0.5 * (s - np.sin(s)) + z,
    "larch": lambda m, s, z: (m.beta0 + m.beta1 * s) * z,
    "asym-arch": lambda m, s, z: np.sqrt((m.a * s + m.b) ** 2 + m.c**2) * z,
    "garch": _garch_reference,
    "location-gibbs": lambda m, s, z: z[0] * z[1] * s + z[1],
    "regression-gibbs": lambda m, s, z: z[0] * z[1] * s + z[1],
}


def _copy(v):
    return tuple(_copy(u) for u in v) if isinstance(v, tuple) else np.copy(v)


def _same(a, b):
    """Bit-identical values of one shape; tuples (a GARCH state, a Gibbs
    draw) member by member."""
    if isinstance(a, tuple):
        return isinstance(b, tuple) and len(a) == len(b) and all(_same(u, v) for u, v in zip(a, b))
    return np.shape(a) == np.shape(b) and np.array_equal(a, b)


@pytest.mark.parametrize("family", sorted(STEP_FAMILIES))
def test_step_into_out_is_bit_identical_and_writes_only_out(family):
    model = STEP_FAMILIES[family]
    rng = np.random.default_rng(2026)
    state = model.make_state(rng.uniform(0.5, 3.0, size=1000), rng.uniform(0.5, 3.0, size=1000))
    for _ in range(3):
        noise = draw_innovations(model, rng, 1000)
        state0, noise0 = _copy(state), _copy(noise)
        out = fresh_like(state)
        assert step(model, state, noise, out) is out
        assert _same(state, state0) and _same(noise, noise0)
        assert _same(out, REFERENCE_STEPS[family](model, state, noise))
        assert step(model, state, noise, out=state) is state
        assert _same(state, out) and _same(noise, noise0)


@pytest.mark.parametrize("family", sorted(STEP_FAMILIES))
def test_draw_into_out_returns_out_bit_identical_to_a_fresh_draw(family):
    # a curve job hands each iteration's spent draw back as the next one's out
    model = STEP_FAMILIES[family]
    rng = NoiseStream(41).generator()
    fresh = [draw_innovations(model, rng, size=1000) for _ in range(2)]
    rng = NoiseStream(41).generator()
    buf = draw_innovations(model, rng, size=1000)
    got = draw_innovations(model, rng, size=1000, out=buf)
    if isinstance(buf, tuple):  # a Gibbs draw fills both arrays of the pair
        assert all(g is b for g, b in zip(got, buf, strict=True))
    else:
        assert got is buf
    assert _same(got, fresh[1])


def test_step_gibbs_positive_state_required():
    m = LocationGibbsTau(31, S_TREES)
    with pytest.raises(StateError):
        step(m, -1.0, (0.1, 0.2), np.empty(()))


def test_family_validation():
    with pytest.raises(ParameterError):
        LARCH(0.0, 0.5, ChiSquare(1))
    with pytest.raises(ParameterError):
        LARCH(1.0, 0.5, Normal(0.0, 1.0))  # noise must be positive a.s.
    with pytest.raises(ParameterError):
        AsymARCH(0.5, 3.0, 0.0, Normal(0.0, 1.0))
    with pytest.raises(ParameterError):
        GARCH(0.0, 0.1, 0.1, Normal(0.0, 1.0))
    with pytest.raises(ParameterError):
        LocationGibbsTau(2, 1.0)


def test_location_gibbs_domain_matches_certificate():
    # the certificate's closed form takes log(S/2): the model needs S > 0
    for s in (0.0, -1.0):
        with pytest.raises(ParameterError):
            LocationGibbsTau(31, s)


def test_gibbs_counts_must_be_integral():
    for bad in (31.7, "31", None):
        with pytest.raises(ParameterError):
            LocationGibbsTau(bad, 295.0)
    for k, p in [(333.5, 4), (333, 4.5), (333, "4")]:
        with pytest.raises(ParameterError):
            RegressionGibbsSigma(k, p, 26123.0)
    for j in (31.0, np.int64(31)):
        assert type(LocationGibbsTau(j, 295.0).j) is int
    m = RegressionGibbsSigma(np.int64(333), 4.0, 26123.0)
    assert (type(m.k), type(m.p)) == (int, int)


def test_vector_ar_matrices_match_certificate():
    # the model alone checks that A and Sigma are square, finite and of one shape;
    # its certificate reads them as the model holds them
    for a, sigma in [
        ([[math.nan]], [[1.0]]),
        ([[0.5]], [[math.inf]]),
        ([[0.5, 0.1]], [[1.0, 0.0]]),
        ([[0.5, "x"], [0.0, 0.5]], np.eye(2)),
        (np.eye(2) * 0.5, np.eye(3)),
    ]:
        with pytest.raises(ParameterError):
            ARNormalD(a, sigma)


def test_garch_domain_matches_certificate():
    # the model alone checks alpha2 > 0 and beta2, gamma2 >= 0; its certificate reads them
    for beta2, gamma2 in [(0.0, 0.5), (0.3, 0.0), (0.0, 0.0)]:
        m = GARCH(0.13, beta2, gamma2, Normal(0.0, 1.0))
        state = GarchState(np.array([0.1, -0.4]), np.array([0.0001, 0.5]))
        s = step(m, state, np.array([1.0, -1.0]), fresh_like(state))
        assert np.allclose(s.s2, 0.13 + beta2 * np.array([0.01, 0.16]) + gamma2 * np.array([0.0001, 0.5]))
    for bad in [(0.13, -0.1, 0.1), (0.13, 0.1, -0.1), (-0.1, 0.1, 0.1)]:
        with pytest.raises(ParameterError):
            GARCH(*bad, Normal(0.0, 1.0))


def test_couple_step_shared_ar1_exact_contraction(stream):
    m = ARNormal1D(0.5, math.sqrt(0.75))
    cs = CoupledState(np.zeros(1000), np.ones(1000))
    out = couple_step(m, cs, stream)
    assert np.allclose(np.abs(out.x - out.x_prime), 0.5 * 1.0, rtol=0, atol=1e-14)


def test_couple_step_shared_asym_arch_contraction_per_draw(stream):
    m = AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0))
    x0 = np.full(20_000, -1.0)
    x0p = np.full(20_000, 2.5)
    cs = CoupledState(x0, x0p)
    rng = stream.substream(0).generator()
    z = draw_innovations(m, rng, size=20_000)
    x1 = step(m, x0, z, fresh_like(x0))
    x1p = step(m, x0p, z, fresh_like(x0p))
    assert np.all(np.abs(x1 - x1p) <= abs(m.a) * np.abs(z) * np.abs(x0 - x0p) + 1e-12)


def test_couple_step_shares_one_draw(stream):
    m = ARNormal1D(0.5, math.sqrt(0.75))
    cs = CoupledState(np.zeros(100_000), np.zeros(100_000))
    out = couple_step(m, cs, stream)
    # equal starts stay equal: both copies take the same innovations
    assert np.array_equal(out.x, out.x_prime)
    assert out.iteration == 1 and np.std(out.x) > 0


def test_couple_step_determinism(stream):
    m = GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
    runs = []
    for _ in range(2):
        cs = CoupledState(m.make_state(np.array([0.1]), np.array([0.0001])),
                          m.make_state(np.array([-0.1]), np.array([0.01])))
        for _ in range(5):
            cs = couple_step(m, cs, NoiseStream(20260809))
        runs.append((np.asarray(cs.x.x), np.asarray(cs.x_prime.x)))
    assert np.array_equal(runs[0][0], runs[1][0])
    assert np.array_equal(runs[0][1], runs[1][1])


def test_garch_sigma2_floor_invariant(stream):
    m = GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
    cs = CoupledState(m.make_state(0.1 * np.ones(10_000), 0.0001 * np.ones(10_000)),
                      m.make_state(-0.1 * np.ones(10_000), 0.01 * np.ones(10_000)))
    for _ in range(5):
        cs = couple_step(m, cs, stream)
        assert np.all(np.asarray(cs.x.s2) >= m.alpha2)
        assert np.all(np.asarray(cs.x_prime.s2) >= m.alpha2)


CONTRACTION_CASES = [
    ("ar1", ARNormal1D(0.5, math.sqrt(0.75)), 0.0, 1.0, 0.5, 1),
    ("location", LocationGibbsTau(31, S_TREES), 1.0, 3.0, 1 / 31, 1),
    ("regression", RegressionGibbsSigma(333, 4, 26123.0), 1.0, 1001.0, 4 / 335, 1),
    ("larch-squared", LARCH(1.0, 0.5, ChiSquare(1)), 0.01, 1.21, 0.5, 1),
    ("asym-arch", AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)), 0.0, 5.0, 0.5 * math.sqrt(2 / math.pi), 1),
    ("nonlinear-ar", NonlinearAR(), 1.0, 2.0, 0.6624749190413847, 2),
]


@pytest.mark.parametrize("name,model,x0,x0p,rate,lag", CONTRACTION_CASES, ids=lambda c: c if isinstance(c, str) else "")
def test_shared_mode_contraction(name, model, x0, x0p, rate, lag):
    n = 100_000
    cs = CoupledState(np.full(n, float(x0)), np.full(n, float(x0p)))
    stream = NoiseStream(314, 42)
    for block in range(2):
        prev = np.abs(np.asarray(cs.x) - np.asarray(cs.x_prime))
        for _ in range(lag):
            cs = couple_step(model, cs, stream)
        cur = np.abs(np.asarray(cs.x) - np.asarray(cs.x_prime))
        mean_prev, mean_cur = prev.mean(), cur.mean()
        se = cur.std(ddof=1) / math.sqrt(n)
        assert mean_cur <= rate * mean_prev * (1 + 3 * se / mean_cur), name


def test_shared_mode_contraction_garch():
    # the gap recursion starts contracting from the first iterate on
    n = 100_000
    m = GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
    rate = math.sqrt(0.1266 + 0.7922)
    cs = CoupledState(m.make_state(0.1 * np.ones(n), 0.0001 * np.ones(n)),
                      m.make_state(-0.1 * np.ones(n), 0.01 * np.ones(n)))
    stream = NoiseStream(314, 43)
    cs = couple_step(m, cs, stream)
    for _ in range(3):
        prev = np.abs(np.asarray(cs.x.x) - np.asarray(cs.x_prime.x))
        cs = couple_step(m, cs, stream)
        cur = np.abs(np.asarray(cs.x.x) - np.asarray(cs.x_prime.x))
        se = cur.std(ddof=1) / math.sqrt(n)
        assert cur.mean() <= rate * prev.mean() * (1 + 3 * se / cur.mean())


def test_shared_mode_contraction_vector_ar():
    d = 20
    a = np.diag(np.full(d, 0.5)) + np.diag(np.full(d - 1, 0.125), 1) + np.diag(np.full(d - 1, 0.125), -1)
    m = ARNormalD(a, np.eye(d))
    rate = float(np.max(np.abs(np.linalg.eigvalsh(a))))
    cs = CoupledState(np.ones(d), np.zeros(d))
    stream = NoiseStream(314, 44)
    for _ in range(3):
        prev = float(np.linalg.norm(np.asarray(cs.x) - np.asarray(cs.x_prime)))
        cs = vector_ar_couple_step(m, cs, stream)
        cur = float(np.linalg.norm(np.asarray(cs.x) - np.asarray(cs.x_prime)))
        assert cur <= rate * prev * (1 + 1e-12)


def test_location_full_sweep_zero_noise_collapses_to_mean():
    m, y_bar = LocationGibbsTau(31, S_TREES), 13.2484
    reduced, (mu, _) = full_sweep(m, 1.0, w=[0.0], g=1.0, beta_tilde1=y_bar, a_inv_11=1 / 31)
    assert mu == y_bar
    assert np.shape(reduced) == np.shape(mu) == ()


def test_reduced_equals_full_under_same_draws(rng):
    m = LocationGibbsTau(31, S_TREES)
    state = rng.uniform(0.5, 4.0, size=1000)
    z = rng.standard_normal(1000)
    g = sample(Gamma((31 + 2) / 2, 1.0), rng, size=1000)
    reduced_full, (mu, _) = full_sweep(m, state, z[:, None], g, 13.2484, 1 / 31)
    assert reduced_full.shape == mu.shape == state.shape
    x, y = innovations_from_full(m, z[:, None], g)
    reduced_direct = step(m, state, (x, y), fresh_like(state))
    assert np.allclose(reduced_full, reduced_direct, rtol=1e-12)

    mr = RegressionGibbsSigma(333, 4, 26123.0)
    state = rng.uniform(0.5, 4.0, size=1000)
    w = rng.standard_normal((1000, 4))
    g = sample(Gamma((333 + 4) / 2, 1.0), rng, size=1000)
    reduced_full, _ = full_sweep(mr, state, w, g)
    x, y = innovations_from_full(mr, w, g)
    assert np.allclose(reduced_full, step(mr, state, (x, y), fresh_like(state)), rtol=1e-12)


@pytest.mark.parametrize("j", [3, 31, 100])
def test_location_chain_is_regression_chain_at_p_1(j):
    # p = 1, k = J + 1, C = S, beta_tilde1 = y_bar, (A^-1)_11 = 1/J
    s, y_bar = 295.43741935483877, 13.2484
    loc, reg = LocationGibbsTau(j, s), RegressionGibbsSigma(j + 1, 1, s)
    for a, b in zip(loc.draw(np.random.default_rng(j), 5000), reg.draw(np.random.default_rng(j), 5000)):
        assert np.array_equal(a, b)
    state = np.geomspace(0.5, 2000.0, 5000)
    red_l, (mu, _) = full_step(loc, state, NoiseStream(j), y_bar, 1 / j)
    red_r, (beta1, _) = full_step(reg, state, NoiseStream(j), y_bar, 1 / j)
    assert np.array_equal(red_l, red_r) and np.array_equal(mu, beta1)


def test_full_sweep_rejects_w_without_a_trailing_p_axis():
    # a bare (paths,) normal draw would otherwise be summed across paths
    state, g = np.ones(1000), np.ones(1000)
    with pytest.raises(ParameterError, match=r"p = 1, got shape \(1000,\)"):
        full_sweep(LocationGibbsTau(31, S_TREES), state, np.zeros(1000), g)
    with pytest.raises(ParameterError, match=r"p = 4, got shape \(1000, 3\)"):
        full_sweep(RegressionGibbsSigma(333, 4, 26123.0), state, np.zeros((1000, 3)), g)


def test_location_first_iterate_mean():
    # E[tau^{-1}_1 | tau^{-1}_0 = 1] = E[XY] + E[Y] = 1/J + S/J
    m = LocationGibbsTau(31, S_TREES)
    reduced, _ = full_step(m, np.ones(1_000_000), NoiseStream(21))
    expected = 1 / 31 + S_TREES / 31
    assert abs(reduced.mean() - expected) < 0.01 * expected


def test_deinit_tv_ordering():
    """The full sweep-(n+1) pair is a random function of the reduced
    value at sweep n, so its TV (and a fortiori the TV of its location
    marginal) cannot exceed the reduced chain's TV one sweep earlier."""
    m = LocationGibbsTau(31, S_TREES)
    n_paths = 200_000
    state_a = np.full(n_paths, 1.0)
    state_b = np.full(n_paths, 20.0)
    stream = NoiseStream(88)
    prev_tv_red = None
    for it in range(3):
        red_a, (mu_a, _) = full_step(m, state_a, stream.substream(2 * it), 13.2484, 1 / 31)
        red_b, (mu_b, _) = full_step(m, state_b, stream.substream(2 * it + 1), 13.2484, 1 / 31)
        tv_red = tvlab.tv_histogram(red_a, red_b, 0.05)
        tv_mu = tvlab.tv_histogram(mu_a, mu_b, 0.05)
        if prev_tv_red is not None:
            # compare floor-corrected estimates, with 3 combined errors
            lhs = tv_mu.estimate - tv_mu.noise_floor
            rhs = prev_tv_red.estimate + 3 * (tv_mu.mc_se + prev_tv_red.mc_se)
            assert lhs <= rhs
        prev_tv_red = tv_red
        state_a, state_b = red_a, red_b


def test_make_state_and_observable():
    g = GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))
    st = g.make_state(0.1, 0.0001)
    assert g.observable(st) == 0.1
    with pytest.raises(ParameterError):
        g.make_state(0.1)


def test_model_dict_roundtrip():
    # every registered family, every distribution tag, through JSON text
    cases = {
        "nonlinear-ar": [NonlinearAR()],
        "ar1": [ARNormal1D(0.5, math.sqrt(0.75))],
        "ar-d": [ARNormalD(np.eye(2) * 0.5, np.eye(2))],
        "location-gibbs": [LocationGibbsTau(31, S_TREES)],
        "regression-gibbs": [RegressionGibbsSigma(333, 4, 26123.0), RegressionGibbsSigma(5, 2, 3.0)],
        "larch": [LARCH(1.0, 0.5, ChiSquare(1)), LARCH(1.0, 0.5, Gamma(0.5, 2.0)), LARCH(1.0, 0.5, InverseGamma(3.0, 2.0))],
        "asym-arch": [AsymARCH(0.5, 3.0, 5.0, Normal(0.0, 1.0)), AsymARCH(-0.2, 1.0, 2.0, Normal(0.5, 2.0))],
        "garch": [GARCH(0.13, 0.1266, 0.7922, Normal(0.0, 1.0))],
        "independent-coordinates": [IndependentCoordinates(math.sqrt(2 / (3 * math.pi)), 0.5, 100)],
    }
    assert set(cases) == set(FAMILIES)
    dist_tags = set()
    for family, ms in cases.items():
        for m in ms:
            d = model_to_dict(m)
            assert d["family"] == family
            back = model_from_dict(json.loads(json.dumps(d)))
            assert type(back) is type(m)
            assert model_to_dict(back) == d
            if isinstance(m, ARNormalD):
                assert np.array_equal(back.a, m.a)
                assert np.array_equal(back.sigma, m.sigma)
                assert set(d["params"]) == {"a", "sigma"}
            else:
                assert back == m
            if "z" in d["params"]:
                dist_tags.add(d["params"]["z"]["dist"])
    assert dist_tags == set(DISTS)
    with pytest.raises(ParameterError):
        model_from_dict({"family": "brownian"})
