"""Particular solutions of z' + Az = f and their resonant kernel bases."""

import numpy as np
import pytest

from odexpand import (
    ExpPolySum,
    ZERO_FREE_CONSTANTS,
    homogeneous_modes,
    resolvent_defect,
    resolvent_solve_exp,
)
from odexpand.expsum import coeff_distance_exp

from helpers import cvec, random_expsum, random_matrix


def _jordan_plant(rng, n: int, lam: int):
    """Integer similarity of a single Jordan block: exact spectrum {lam}."""
    J = np.eye(n, dtype=np.int64) * lam
    for i in range(n - 1):
        J[i, i + 1] = 1
    L = np.eye(n, dtype=np.int64)
    U = np.eye(n, dtype=np.int64)
    L[np.tril_indices(n, -1)] = rng.integers(-2, 3, size=n * (n - 1) // 2)
    U[np.triu_indices(n, 1)] = rng.integers(-2, 3, size=n * (n - 1) // 2)
    Q = L @ U
    Qi = np.round(np.linalg.inv(Q)).astype(np.int64)
    assert np.array_equal(Q @ Qi, np.eye(n, dtype=np.int64))
    return (Q @ J @ Qi).astype(float)


def test_simple_nonresonant_scalar():
    z, modes = resolvent_solve_exp(np.array([[2.0]]), ExpPolySum.build(1, [(-1.0, [[1.0]])]))
    assert modes == []
    (nu, rows), = z.items()
    assert nu == -1.0
    np.testing.assert_allclose(rows, [[1.0]])


def test_simple_resonant_scalar_bumps_degree():
    z, modes = resolvent_solve_exp(np.array([[1.0]]), ExpPolySum.build(1, [(-1.0, [[1.0]])]))
    (nu, rows), = z.items()
    assert nu == -1.0
    np.testing.assert_allclose(rows, [[0.0], [1.0]], atol=1e-14)
    assert len(modes) == 1
    (mnu, mrows), = modes[0].items()
    assert mnu == -1.0
    np.testing.assert_allclose(mrows, [[1.0]])


def test_rotational_block_solution():
    A = np.array([[1.0, -1.0], [1.0, 1.0]])
    f = ExpPolySum.build(2, [(-1.0, [[1.0, 0.0]])])
    z, modes = resolvent_solve_exp(A, f)
    assert modes == []
    (nu, rows), = z.items()
    np.testing.assert_allclose(rows, [[0.0, -1.0]], atol=1e-14)


def test_unsupported_policy_message():
    f = ExpPolySum.build(1, [(-1.0, [[1.0]])])
    with pytest.raises(ValueError, match="unsupported resonance policy: 'other'"):
        resolvent_solve_exp(np.array([[2.0]]), f, resonance_policy="other")
    assert ZERO_FREE_CONSTANTS == "zero_free_constants"


def test_defect_vanishes_on_random_nonresonant_problems():
    rng = np.random.default_rng(101)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        A = random_matrix(rng, n)
        f = random_expsum(rng, n, n_terms=3, max_degree=3)
        z, modes = resolvent_solve_exp(A, f)
        assert modes == []
        assert resolvent_defect(A, f, z).is_zero()


def test_nonresonant_matches_inverse_power_series():
    # q = sum_k (-1)^k B^{-k-1} p^{(k)} for a single forcing term
    rng = np.random.default_rng(103)
    n = 3
    A = random_matrix(rng, n)
    nu = -0.7 + 0.9j
    rows = cvec(rng, 3 * n).reshape(3, n)
    f = ExpPolySum.build(n, [(nu, rows)])
    z, _ = resolvent_solve_exp(A, f)

    B = A + nu * np.eye(n)
    Binv = np.linalg.inv(B)
    p = rows.copy()
    expected = np.zeros_like(rows)
    power = Binv.copy()
    sign = 1.0
    for _ in range(rows.shape[0]):
        expected += sign * p @ power.T
        # polynomial derivative: row j of p' is (j+1) * row j+1
        p = np.array([(j + 1) * p[j + 1] for j in range(p.shape[0] - 1)] + [np.zeros(n)])
        power = power @ Binv
        sign = -sign
    got = dict(z.items())[complex(nu)]
    np.testing.assert_allclose(got, expected, rtol=1e-9, atol=1e-12)


def test_defect_vanishes_on_planted_diagonalizable_resonance():
    rng = np.random.default_rng(107)
    for _ in range(25):
        n = int(rng.integers(2, 6))
        lams = np.sort(rng.uniform(0.5, 3.0, size=n))
        Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        A = Q @ np.diag(lams) @ Q.T
        nu = -float(lams[0])
        deg = int(rng.integers(0, 3))
        f = ExpPolySum.build(n, [(nu, cvec(rng, (deg + 1) * n).reshape(deg + 1, n))])
        z, modes = resolvent_solve_exp(A, f)
        assert resolvent_defect(A, f, z).is_zero()
        assert len(modes) == 1
        assert modes[0].degree() == 0


def test_planted_jordan_resonance_recovers_full_kernel():
    rng = np.random.default_rng(109)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        lam = int(rng.integers(1, 4))
        A = _jordan_plant(rng, n, lam)
        deg = int(rng.integers(0, 3))
        f = ExpPolySum.build(n, [(-float(lam), cvec(rng, (deg + 1) * n).reshape(deg + 1, n))])
        z, modes = resolvent_solve_exp(A, f)
        assert resolvent_defect(A, f, z).is_zero()
        # the full generalized eigenspace: one mode per Jordan chain slot
        assert len(modes) == n
        degrees = sorted(m.degree() for m in modes)
        assert degrees == list(range(n))
        zero = ExpPolySum.zero(n)
        for m in modes:
            assert resolvent_defect(A, zero, m).sup_norm() < 1e-7 * m.sup_norm()


def test_mixed_multiplicity_kernel():
    # Jordan pair at eigenvalue 1 plus a simple eigenvalue 3
    Jm = np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 3.0]])
    S = np.array([[1.0, 2.0, 0.0], [0.0, 1.0, 1.0], [1.0, 0.0, 1.0]])
    A = S @ Jm @ np.linalg.inv(S)
    f = ExpPolySum.build(3, [(-1.0, [[1.0, 2.0, -1.0]])])
    z, modes = resolvent_solve_exp(A, f)
    assert resolvent_defect(A, f, z).is_zero()
    assert sorted(m.degree() for m in modes) == [0, 1]


def test_multi_term_forcing_solved_per_exponent():
    rng = np.random.default_rng(113)
    A = random_matrix(rng, 3)
    f = random_expsum(rng, 3, n_terms=4, max_degree=2)
    z, _ = resolvent_solve_exp(A, f)
    assert z.exponents() == f.exponents()
    assert resolvent_defect(A, f, z).is_zero()


def test_homogeneous_modes_detection():
    A = np.array([[2.0]])
    hits = homogeneous_modes(A, -2.0)
    assert len(hits) == 1
    assert coeff_distance_exp(hits[0], ExpPolySum.build(1, [(-2.0, [[1.0]])])) < 1e-14
    assert homogeneous_modes(A, -1.0) == []


def test_corrupted_solution_has_visible_defect():
    rng = np.random.default_rng(127)
    A = random_matrix(rng, 2)
    f = random_expsum(rng, 2, n_terms=2)
    z, _ = resolvent_solve_exp(A, f)
    bad = z + ExpPolySum.build(2, [(-1.0 + 0.3j, [[1e-3, 0.0]])])
    d = resolvent_defect(A, f, bad)
    assert not d.is_zero()
    assert 1e-5 < d.sup_norm() < 1.0


def test_dimension_checks():
    f = ExpPolySum.build(2, [(-1.0, [[1.0, 0.0]])])
    with pytest.raises(ValueError):
        resolvent_solve_exp(np.array([[1.0]]), f)
    with pytest.raises(ValueError):
        resolvent_solve_exp(np.array([[1.0, 0.0]]), ExpPolySum.build(1, [(-1.0, [[1.0]])]))
