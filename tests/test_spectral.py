"""Spectral computations of the ar-d certificate.

C = sqrt(d/(2 pi)) * ||Sigma^-1||_F * ||P||_F * ||P^-1||_F * ||x0 - x0'||_2 and
D = max_i |lambda_i|, with A = P diag(lambda) P^T from the symmetric
eigendecomposition and Sigma^-1 from the condition-checked inverse in bounds.
An orthogonal P has ||P||_F = ||P^-1||_F = sqrt(d), so C / (sqrt(d/(2 pi)) * d * gap)
is ||Sigma^-1||_F.
"""

import math

import numpy as np
import pytest

from tvbounds.bounds import ar_normal_d_certificate
from tvbounds.errors import ParameterError


def tridiagonal(d, diag, off):
    return np.diag(np.full(d, diag)) + np.diag(np.full(d - 1, off), 1) + np.diag(np.full(d - 1, off), -1)


def sigma_inv_frobenius(cert, d, gap):
    """||Sigma^-1||_F read back from C, taking ||P||_F = ||P^-1||_F = sqrt(d)."""
    return cert.c / (math.sqrt(d / (2 * math.pi)) * d * gap)


def test_frobenius_identity():
    cert = ar_normal_d_certificate(0.5 * np.eye(3), np.eye(3), np.ones(3), np.zeros(3))
    # ||Sigma^-1||_F = ||P||_F = ||P^-1||_F = ||x0 - x0'||_2 = sqrt(3)
    assert cert.c == pytest.approx(math.sqrt(3 / (2 * math.pi)) * math.sqrt(3) ** 4, rel=1e-15)


def test_frobenius_diag():
    sigma = np.diag([1.0, 0.5, 0.5])  # Sigma^-1 = diag(1, 2, 2)
    cert = ar_normal_d_certificate(np.diag([0.2, 0.6, -0.4]), sigma, [1.0, 0.0, 0.0], np.zeros(3))
    assert sigma_inv_frobenius(cert, 3, 1.0) == pytest.approx(3.0, rel=1e-15)


def test_sym_eigen_tridiagonal_analytic():
    # eigenvalues of the d x d tridiagonal Toeplitz (diag 1/2, off 1/8)
    # are 1/2 + (1/4) cos(i pi / (d+1)), so the largest is at i = 1
    for d in (2, 10, 100, 300):
        a = tridiagonal(d, 0.5, 0.125)
        cert = ar_normal_d_certificate(a, np.eye(d), np.ones(d), np.zeros(d))
        assert cert.d == pytest.approx(0.5 + 0.25 * math.cos(math.pi / (d + 1)), abs=1e-12)
        assert sigma_inv_frobenius(cert, d, math.sqrt(d)) == pytest.approx(math.sqrt(d), rel=1e-12)


def test_sym_eigen_identity():
    for s in (0.0, 0.5, -0.9):
        cert = ar_normal_d_certificate(s * np.eye(4), np.eye(4), np.ones(4), np.zeros(4))
        assert cert.d == abs(s)
        assert sigma_inv_frobenius(cert, 4, 2.0) == pytest.approx(2.0, rel=1e-15)


def test_sym_eigen_diagonal_sorting():
    # the rate is the largest |lambda|, here a negative eigenvalue listed
    # between two positive ones; P is a signed permutation
    cert = ar_normal_d_certificate(np.diag([0.3, -0.8, 0.5]), np.eye(3), [1.0, 2.0, 2.0], np.zeros(3))
    assert cert.d == 0.8
    assert sigma_inv_frobenius(cert, 3, 3.0) == pytest.approx(math.sqrt(3), rel=1e-15)


def test_sym_eigen_reconstruction_and_orthogonality(rng):
    # with Sigma = I, C recovers ||P||_F * ||P^-1||_F = d only for an orthogonal P;
    # the rate is the spectral norm of a symmetric A, here from an SVD rather than eigh
    for d in (5, 30, 100):
        m = rng.standard_normal((d, d))
        a = (m + m.T) / 2
        a *= 0.9 / np.linalg.norm(a, 2)
        x0 = rng.standard_normal(d)
        cert = ar_normal_d_certificate(a, np.eye(d), x0, np.zeros(d))
        assert cert.d == pytest.approx(np.linalg.norm(a, 2), rel=1e-12)
        assert sigma_inv_frobenius(cert, d, np.linalg.norm(x0)) == pytest.approx(math.sqrt(d), rel=1e-12)


def test_sym_eigen_rejects_asymmetric():
    a = np.array([[0.5, 0.2], [0.2, 0.5]])
    ar_normal_d_certificate(a + np.array([[0.0, 1e-15], [0.0, 0.0]]), np.eye(2), np.ones(2), np.zeros(2))
    for eps in (1e-10, 0.2):
        skewed = a + np.array([[0.0, eps], [0.0, 0.0]])
        with pytest.raises(ParameterError, match="symmetric"):
            ar_normal_d_certificate(skewed, np.eye(2), np.ones(2), np.zeros(2))


def test_eigen_sum_trace_product_det(rng):
    # A = Q diag(lam) Q^T with a random orthogonal Q and known eigenvalues lam
    for d in (10, 100):
        q, _ = np.linalg.qr(rng.standard_normal((d, d)))
        lam = rng.uniform(-0.95, 0.95, size=d)
        a = q @ np.diag(lam) @ q.T
        a = (a + a.T) / 2
        assert abs(np.trace(a) - lam.sum()) < 1e-10 * max(abs(lam.sum()), 1)
        cert = ar_normal_d_certificate(a, np.eye(d), np.ones(d), np.zeros(d))
        assert cert.d == pytest.approx(np.max(np.abs(lam)), rel=1e-12)


def test_inverse_diag():
    cert = ar_normal_d_certificate(0.5 * np.eye(2), np.diag([2.0, 4.0]), [1.0, 0.0], np.zeros(2))
    assert sigma_inv_frobenius(cert, 2, 1.0) == pytest.approx(math.hypot(0.5, 0.25), rel=1e-15)


def test_inverse_random_50(rng):
    d = 50
    sigma = rng.standard_normal((d, d)) + 8 * np.eye(d)
    cert = ar_normal_d_certificate(0.5 * np.eye(d), sigma, np.ones(d), np.zeros(d))
    sigma_inv_f = np.linalg.norm(np.linalg.solve(sigma, np.eye(d)))
    assert sigma_inv_frobenius(cert, d, math.sqrt(d)) == pytest.approx(sigma_inv_f, rel=1e-10)


def test_inverse_rejects_singular():
    a = 0.5 * np.eye(2)
    ar_normal_d_certificate(a, np.diag([1.0, 1e-11]), np.ones(2), np.zeros(2))  # condition 1e11
    for sigma in (np.array([[1.0, 2.0], [2.0, 4.0]]), np.zeros((2, 2)), np.diag([1.0, 1e-13])):
        with pytest.raises(ParameterError, match="singular or ill-conditioned"):
            ar_normal_d_certificate(a, sigma, np.ones(2), np.zeros(2))
