"""Particular solutions of z' + Az = f, and the kernel bases of its spectrum."""

import numpy as np
import pytest

from odexpand import (
    ExpPolySum,
    homogeneous_modes,
    resolvent,
    resolvent_defect,
    resolvent_solve_exp,
)

from helpers import (
    assert_arrays_bitwise_equal,
    assert_bitwise_equal,
    coeff_distance_exp,
    cvec,
    jordan_plant,
    mode_degree,
    random_expsum,
    random_matrix,
    solve_nonresonant_oracle,
)


def test_simple_nonresonant_scalar():
    z, resonant = resolvent_solve_exp(np.array([[2.0]]), ExpPolySum.build(1, [(-1.0, [[1.0]])]))
    assert resonant == []
    (nu, rows), = z.items()
    assert nu == -1.0
    np.testing.assert_allclose(rows, [[1.0]])


def test_simple_resonant_scalar_bumps_degree():
    A = np.array([[1.0]])
    z, resonant = resolvent_solve_exp(A, ExpPolySum.build(1, [(-1.0, [[1.0]])]))
    (nu, rows), = z.items()
    assert nu == -1.0
    np.testing.assert_allclose(rows, [[0.0], [1.0]], atol=1e-14)
    assert resonant == [-1.0]
    modes = homogeneous_modes(A, -1.0)
    assert len(modes) == 1
    (mnu, mrows), = modes[0].items()
    assert mnu == -1.0
    np.testing.assert_allclose(mrows, [[1.0]])


def test_rotational_block_solution():
    A = np.array([[1.0, -1.0], [1.0, 1.0]])
    f = ExpPolySum.build(2, [(-1.0, [[1.0, 0.0]])])
    z, resonant = resolvent_solve_exp(A, f)
    assert resonant == []
    (nu, rows), = z.items()
    np.testing.assert_allclose(rows, [[0.0, -1.0]], atol=1e-14)


def test_defect_vanishes_on_random_nonresonant_problems():
    rng = np.random.default_rng(101)
    for _ in range(40):
        n = int(rng.integers(1, 6))
        A = random_matrix(rng, n)
        f = random_expsum(rng, n, n_terms=3, max_degree=3)
        z, resonant = resolvent_solve_exp(A, f)
        assert resonant == []
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
        z, resonant = resolvent_solve_exp(A, f)
        assert resolvent_defect(A, f, z).is_zero()
        assert resonant == f.nus.tolist()
        modes = homogeneous_modes(A, nu)
        assert len(modes) == 1
        assert mode_degree(modes[0]) == 0


def test_planted_jordan_resonance_recovers_full_kernel():
    rng = np.random.default_rng(109)
    for _ in range(12):
        n = int(rng.integers(2, 5))
        lam = int(rng.integers(1, 4))
        A = jordan_plant(rng, n, lam)
        deg = int(rng.integers(0, 3))
        f = ExpPolySum.build(n, [(-float(lam), cvec(rng, (deg + 1) * n).reshape(deg + 1, n))])
        z, resonant = resolvent_solve_exp(A, f)
        assert resolvent_defect(A, f, z).is_zero()
        assert resonant == [-float(lam)]
        # the full generalized eigenspace: one mode per Jordan chain slot
        modes = homogeneous_modes(A, -float(lam))
        assert len(modes) == n
        degrees = sorted(mode_degree(m) for m in modes)
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
    z, resonant = resolvent_solve_exp(A, f)
    assert resolvent_defect(A, f, z).is_zero()
    assert resonant == [-1.0]
    modes = homogeneous_modes(A, -1.0)
    assert sorted(mode_degree(m) for m in modes) == [0, 1]
    zero = ExpPolySum.zero(3)
    for m in modes:
        assert resolvent_defect(A, zero, m).sup_norm() < 1e-7 * m.sup_norm()


def test_multi_term_forcing_solved_per_exponent():
    rng = np.random.default_rng(113)
    A = random_matrix(rng, 3)
    f = random_expsum(rng, 3, n_terms=4, max_degree=2)
    z, _ = resolvent_solve_exp(A, f)
    assert z.nus.tolist() == f.nus.tolist()
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


def test_defect_sees_a_perturbed_t1_row():
    # only the descent of the t row gives d/dt(delta t e^{nu t}) its delta e^{nu t}
    rng = np.random.default_rng(131)
    A = random_matrix(rng, 2)
    nu = -1.0 + 0.3j
    f = ExpPolySum.build(2, [(nu, cvec(rng, 4).reshape(2, 2))])
    z, _ = resolvent_solve_exp(A, f)
    assert resolvent_defect(A, f, z).is_zero()
    delta = np.array([1e-3, 0.0])
    bad = ExpPolySum.from_pieces(2, [(z.nus, z.rows + np.stack([0.0 * delta, delta])[None])])
    d = resolvent_defect(A, f, bad)
    assert d.depth == 0
    assert sorted(round(a[1].real) for a in d.alphas.tolist()) == [0, 1]
    for t in (1.5, 2.0, 3.0):
        want = (delta + t * (A + nu * np.eye(2)) @ delta) * np.exp(nu * t)
        np.testing.assert_allclose(d.eval(t), want, rtol=1e-9)


def test_dimension_checks():
    f = ExpPolySum.build(2, [(-1.0, [[1.0, 0.0]])])
    with pytest.raises(ValueError):
        resolvent_solve_exp(np.array([[1.0]]), f)
    with pytest.raises(ValueError):
        resolvent_solve_exp(np.array([[1.0, 0.0]]), ExpPolySum.build(1, [(-1.0, [[1.0]])]))


# ---------------------------------------------------------------------------
# the non-resonant back-substitution and the stacked resonance test


def test_getrs_back_substitution_matches_lu_solve_bitwise():
    rng = np.random.default_rng(131)
    for n in range(1, 5):
        for rows in range(1, 6):
            for B in (random_matrix(rng, n), rng.standard_normal((n, n)).astype(complex)):
                p = cvec(rng, rows * n).reshape(rows, n) * 10.0 ** rng.integers(-3, 4)
                got = resolvent._solve_nonresonant(B, p)
                assert_arrays_bitwise_equal(got, solve_nonresonant_oracle(B, p))


@pytest.mark.parametrize("rows", [1, 3])
def test_nonresonant_solve_raises_on_a_non_finite_solution(rows):
    # B^{-1} p overflows at the top degree; lu_solve checked only its
    # right-hand side, so it let that pass on a one-row term
    B = np.array([[1e-300, 0.0], [0.0, 1.0]], dtype=complex)
    p = np.zeros((rows, 2), dtype=complex)
    p[-1] = [1e300, 1.0]
    with pytest.raises(ValueError, match="non-finite"):
        resolvent._solve_nonresonant(B, p)
    p[-1] = [1.0, np.nan]
    with pytest.raises(ValueError, match="non-finite"):
        resolvent._solve_nonresonant(B, p)


def test_stacked_svd_decides_resonance_as_the_per_term_svd(monkeypatch):
    rng = np.random.default_rng(137)
    A = jordan_plant(rng, 3, 2)
    n = A.shape[0]
    # -2 hits the Jordan eigenvalue exactly; the others miss it
    f = ExpPolySum.build(3, [
        (nu, cvec(rng, 2 * n).reshape(2, n))
        for nu in (-1.0, -2.0, -2.5, -1.0 + 0.7j, -1.0 - 0.7j, -3.5)
    ])
    seen = []
    for name in ("_solve_nonresonant", "_solve_resonant"):
        def spy(B, *rest, _inner=getattr(resolvent, name), _name=name):
            seen.append((_name, B.copy()))
            return _inner(B, *rest)

        monkeypatch.setattr(resolvent, name, spy)
    z, resonant = resolvent_solve_exp(A, f)
    want = []
    for nu in f.nus.tolist():
        B = A + nu * np.eye(n)
        sv = np.linalg.svd(B, compute_uv=False)
        invertible = sv[-1] > resolvent.SINGULAR_REL * max(sv[0], 1.0)
        solver = "_solve_nonresonant" if invertible else "_solve_resonant"
        want.append((solver, B))
    assert [name for name, _ in seen] == [name for name, _ in want]
    assert [name for name, _ in seen].count("_solve_resonant") == 1
    for (_, got), (_, B) in zip(seen, want):
        assert_arrays_bitwise_equal(got, B)
    assert resonant == [-2.0]
    assert len(homogeneous_modes(A, -2.0)) == 3
    assert resolvent_defect(A.astype(complex), f, z).is_zero()
    # each slice of the stacked call is the single-matrix call, bit for bit
    stack = np.stack([B for _, B in want])
    for B, sv in zip(stack, np.linalg.svd(stack, compute_uv=False)):
        assert_arrays_bitwise_equal(sv, np.linalg.svd(B, compute_uv=False))


def test_zero_forcing_gives_the_zero_sum_and_no_modes():
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    z, resonant = resolvent_solve_exp(A, ExpPolySum.zero(2))
    assert resonant == []
    assert_bitwise_equal(z, ExpPolySum.zero(2))
