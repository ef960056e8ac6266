import numpy as np
import pytest
import scipy.linalg
import scipy.special

from odexpand.numerics import _kronecker_directions, decay_envelope_constant, matrix_exp_norm

MATRICES = {
    # Lower triangular with distinct eigenvalues, like a permuted resonant system.
    "triangular": np.array([[4.0, 0.0, 0.0], [0.373, 3.0, 0.0], [0.669, -0.186, 2.0]]),
    # Jordan block: repeated eigenvalue, polynomial growth before the decay.
    "jordan": np.array([[1.5, 1.0, 0.0], [0.0, 1.5, 1.0], [0.0, 0.0, 1.5]]),
    "dense_nonnormal": np.array([[2.0, -7.0, 0.5], [0.3, 1.0, 4.0], [-0.2, 0.1, 3.0]]),
    "complex": np.array([[1.0 + 2.0j, 0.5], [-0.25j, 0.7 - 1.0j]]),
    "scalar": np.array([[2.0]]),
}


def scipy_norms(A, ts):
    A = np.asarray(A, dtype=complex)
    return np.array([np.linalg.norm(scipy.linalg.expm(-t * A), 2) for t in ts])


@pytest.mark.parametrize("name", sorted(MATRICES))
def test_matrix_exp_norm_matches_scipy(name):
    A = MATRICES[name]
    ts = np.linspace(0.0, 40.0, 161)
    np.testing.assert_allclose(matrix_exp_norm(A, ts), scipy_norms(A, ts), rtol=1e-12, atol=0)


@pytest.mark.parametrize("name", ["triangular", "jordan", "dense_nonnormal"])
def test_decay_envelope_constant_matches_scipy(name):
    A = MATRICES[name]
    lam1 = min(np.linalg.eigvals(A).real)
    ts = np.linspace(0.0, 80.0 / lam1, 641)
    expected = np.max(scipy_norms(A, ts) * np.exp(0.5 * lam1 * ts))
    assert decay_envelope_constant(A) == pytest.approx(expected, rel=1e-13)


def test_matrix_exp_norm_empty_grid_and_zero_matrix():
    assert matrix_exp_norm(np.eye(3), []).shape == (0,)
    np.testing.assert_array_equal(matrix_exp_norm(np.zeros((3, 3)), [0.0, 5.0]), [1.0, 1.0])


@pytest.mark.parametrize("dim2", [2, 6])
def test_kronecker_directions_match_the_ndtri_formula(dim2):
    # the same Kronecker points pushed through scipy's normal quantile
    phi = 1.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim2 + 1))
    alphas = np.array([(1.0 / phi) ** (j + 1) % 1.0 for j in range(dim2)])
    k = np.arange(1, 1025).reshape(-1, 1)
    u = np.clip((0.5 + k * alphas) % 1.0, 1e-12, 1.0 - 1e-12)
    g = scipy.special.ndtri(u)
    want = g / np.linalg.norm(g, axis=1, keepdims=True)
    got = _kronecker_directions(dim2, 1024)
    # rows are unit vectors, so the absolute bound is relative to each row
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-15)
    np.testing.assert_allclose(np.linalg.norm(got, axis=1), 1.0, rtol=0, atol=4e-16)
