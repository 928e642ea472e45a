"""Property tests over drawn inputs: certificate evaluation and its JSON
round-trip, the contract every registered noise law keeps, and each
positive law's closed-form log-scale height against a numeric search.

Runs are derandomized and small, so the suite stays reproducible and fast.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tvbounds.bounds import (
    BoundCertificate,
    bound_eval,
    certificate_to_dict,
    golden_section_max,
    iterations_to_epsilon,
)
from tvbounds.stochastics import (
    DISTS,
    ChiSquare,
    Gamma,
    InverseGamma,
    Normal,
    abs_moment,
    density,
    dist_from_dict,
    dist_to_dict,
    log_density,
)

from conftest import _certificate_from_dict

PROPERTY = settings(derandomize=True, max_examples=60, deadline=None, database=None)

certificates = st.builds(
    BoundCertificate,
    c=st.floats(0.0, 1e6),
    d=st.floats(0.0, 0.999),
    n0=st.integers(0, 50),
    gap=st.floats(0.0, 1e6),
    family=st.sampled_from(("", "ar1", "garch")),
    notes=st.lists(st.text(max_size=8), max_size=2).map(tuple),
    exp_offset=st.sampled_from((0, 1)),
    exp_step=st.sampled_from((1, 2)),
    details=st.dictionaries(st.text(max_size=5), st.floats(-1e6, 1e6), max_size=2),
)
epsilons = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)

# every registered law, each field drawn from (0.01, 100)
laws = st.one_of(
    [st.builds(cls, **{name: st.floats(0.01, 100.0) for name in cls._fields}) for cls in DISTS.values()]
)


@PROPERTY
@given(certificates)
def test_bound_is_non_increasing_and_clamped(cert):
    values = [bound_eval(cert, n) for n in range(cert.n0 + 1, cert.n0 + 41)]
    for v in values:
        assert v.clamped == min(1.0, v.raw)
    raws = [v.raw for v in values]
    assert all(later <= earlier for earlier, later in zip(raws, raws[1:]))


@PROPERTY
@given(certificates, epsilons)
def test_iterations_to_epsilon_is_the_first_crossing(cert, eps):
    n = iterations_to_epsilon(cert, eps)
    assert n > cert.n0
    assert bound_eval(cert, n).raw < eps
    assert n - 1 == cert.n0 or bound_eval(cert, n - 1).raw >= eps


# C, D and gap each take 0; answers stay below 10**4 (C * gap <= 10**6,
# D <= 0.99, eps >= 1e-6 or within 2 ulps of a bound value at n0 + 1 + k)
small_answer_certificates = st.builds(
    BoundCertificate,
    c=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    d=st.one_of(st.just(0.0), st.floats(0.0, 0.99)),
    n0=st.integers(0, 50),
    gap=st.one_of(st.just(0.0), st.floats(1e-3, 1e3)),
    exp_offset=st.sampled_from((0, 1)),
    exp_step=st.sampled_from((1, 2, 3)),
)


def _first_below_by_scan(cert, eps):
    n = cert.n0 + 1
    while bound_eval(cert, n).raw >= eps:
        n += 1
    return n


@PROPERTY
@given(small_answer_certificates, st.floats(1e-6, 1.0, exclude_max=True))
def test_iterations_to_epsilon_matches_a_linear_scan(cert, eps):
    assert iterations_to_epsilon(cert, eps) == _first_below_by_scan(cert, eps)


@PROPERTY
@given(small_answer_certificates, st.integers(0, 9_000), st.integers(-2, 2))
def test_iterations_to_epsilon_matches_a_linear_scan_near_a_bound_value(cert, k, ulps):
    eps = bound_eval(cert, cert.n0 + 1 + k).raw
    for _ in range(abs(ulps)):
        eps = math.nextafter(eps, math.copysign(math.inf, ulps))
    assume(0 < eps < 1)
    assert iterations_to_epsilon(cert, eps) == _first_below_by_scan(cert, eps)


@PROPERTY
@given(certificates)
def test_certificate_json_roundtrip(cert):
    assert _certificate_from_dict(certificate_to_dict(cert)) == cert


@PROPERTY
@given(laws, st.floats(-1e6, 0.0))
def test_law_roundtrips_and_has_no_density_off_its_support(law, x):
    assert dist_from_dict(dist_to_dict(law)) == law
    if law.positive:
        assert log_density(law, x) == -math.inf
        assert density(law, x) == 0.0


@PROPERTY
@given(st.floats(0.01, 100.0), st.floats(-10.0, 1e3), st.integers(1, 4))
def test_chi_square_is_gamma_half_nu_one_half(nu, x, k):
    gamma = Gamma(nu / 2, 0.5)
    assert log_density(ChiSquare(nu), x) == log_density(gamma, x)
    assert abs_moment(ChiSquare(nu), k) == abs_moment(gamma, k)


def _log_scale_density_sup(law, mode: float) -> float:
    """Numeric sup_x e^x f(e^x) for a ``law`` for which x -> e^x f(e^x)
    peaks at ``mode``: the best of 20,001 points on [mode - 8, mode + 8],
    refined by golden section between that point's grid neighbours."""

    def height(x):
        return np.exp(x + log_density(law, np.exp(x)))

    x = mode + np.linspace(-8.0, 8.0, 20001)
    vals = height(x)
    i = int(np.argmax(vals))
    refined = golden_section_max(height, x[max(i - 1, 0)], x[min(i + 1, len(x) - 1)])
    return max(refined, float(vals[i]))


@PROPERTY
@given(st.sampled_from((Gamma, InverseGamma, ChiSquare, Normal)),
       st.floats(-3.0, 3.0).map(lambda e: 10.0**e), st.floats(-20.0, 20.0).map(lambda e: 10.0**e))
def test_log_scale_height_is_the_numeric_maximum(cls, shape, rate):
    # log Z peaks at log(shape/rate) for a gamma, at its reflection for an
    # inverse gamma; chi-square(2 shape) is the gamma of rate 1/2.  log|Z| of
    # a centred normal (sigma = rate) has density 2 e^x f(e^x), peaking at log sigma
    folds = 1
    if cls is ChiSquare:
        law, mode = ChiSquare(2 * shape), math.log(2 * shape)
    elif cls is Normal:
        law, mode, folds = Normal(0.0, rate), math.log(rate), 2
    else:
        law, mode = cls(shape, rate), math.log(shape / rate) * (1 if cls is Gamma else -1)
    assert law.log_scale_sup() == pytest.approx(folds * _log_scale_density_sup(law, mode), rel=1e-9)
