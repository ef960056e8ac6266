"""Sparse symmetric-use multilinear maps."""

import numpy as np
import pytest

from odexpand import MultiLinearMap

from helpers import cvec, dense_apply, random_multilinear


def test_entries_merge_and_drop_zeros():
    G = MultiLinearMap(2, 2, ((0, (0, 1), 2.0), (0, (0, 1), 1.0), (1, (0, 0), 0.0)))
    assert G.entries == ((0, (0, 1), 3.0 + 0.0j),)


def test_entries_sorted_canonically():
    e1 = ((1, (1, 0), 1.0), (0, (0, 1), 2.0))
    e2 = ((0, (0, 1), 2.0), (1, (1, 0), 1.0))
    assert MultiLinearMap(2, 2, e1) == MultiLinearMap(2, 2, e2)


def test_call_matches_bruteforce():
    rng = np.random.default_rng(11)
    for _ in range(25):
        arity = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        G = random_multilinear(rng, arity, dim, n_entries=6)
        args = [cvec(rng, dim) for _ in range(arity)]
        got = G(*args)
        np.testing.assert_allclose(got, dense_apply(G, args), rtol=1e-13, atol=1e-13)


def test_call_is_multilinear_in_each_slot():
    rng = np.random.default_rng(12)
    G = random_multilinear(rng, 3, 3, n_entries=8)
    x, y, z, w = (cvec(rng, 3) for _ in range(4))
    a = 0.7 - 1.3j
    lhs = G(x, a * y + w, z)
    rhs = a * G(x, y, z) + G(x, w, z)
    np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-12)


def test_scalar_power_is_plain_power():
    cube = MultiLinearMap.scalar_power(3)
    assert cube.arity == 3 and cube.dim == 1
    v = np.array([1.5 + 0.5j])
    np.testing.assert_allclose(cube(v, v, v), v**3)


def test_index_validation():
    with pytest.raises(ValueError):
        MultiLinearMap(2, 2, ((2, (0, 0), 1.0),))  # output index out of range
    with pytest.raises(ValueError):
        MultiLinearMap(2, 2, ((0, (0, 2), 1.0),))  # input index out of range
    with pytest.raises(ValueError):
        MultiLinearMap(2, 2, ((0, (0,), 1.0),))  # tuple length != arity
    with pytest.raises(ValueError):
        MultiLinearMap(0, 2)  # arity must be >= 1


def test_is_real_detects_imaginary_entries():
    G = MultiLinearMap(2, 1, ((0, (0, 0), 1.0),))
    assert G.is_real()
    H = MultiLinearMap(2, 1, ((0, (0, 0), 1.0 + 1e-6j),))
    assert not H.is_real()
    assert H.is_real(tol=1e-3)


def test_call_arity_mismatch():
    G = MultiLinearMap.scalar_power(2)
    v = np.array([1.0 + 0j])
    with pytest.raises((TypeError, ValueError)):
        G(v)


def _spread_cvecs(rng, shape) -> np.ndarray:
    """Complex entries over many magnitudes, with exact zeros mixed in."""
    scale = 10.0 ** rng.integers(-6, 7, size=shape)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * scale
    z[rng.random(shape) < 0.1] = 0.0
    return z


def _assert_bitwise(a: np.ndarray, b: np.ndarray) -> None:
    assert np.array_equal(a, b)
    assert np.array_equal(np.signbit(a.real), np.signbit(b.real))
    assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag))


def test_batch_outer_product_equals_stacked_calls_bitwise():
    rng = np.random.default_rng(31)
    for _ in range(60):
        arity = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        G = random_multilinear(rng, arity, dim, n_entries=int(rng.integers(1, 9)))
        counts = [int(rng.integers(1, 5)) for _ in range(arity)]
        stacks = [_spread_cvecs(rng, (k, dim)) for k in counts]
        shaped = []
        for s, x in enumerate(stacks):
            shape = [1] * arity
            shape[s] = counts[s]
            shaped.append(x.reshape(shape + [dim]))
        got = G.batch(*shaped)
        assert got.shape == tuple(counts) + (dim,)
        want = np.array(
            [G(*(stacks[s][i] for s, i in enumerate(idx))) for idx in np.ndindex(*counts)]
        ).reshape(got.shape)
        _assert_bitwise(got, want)


def test_batch_rowwise_equals_stacked_calls_bitwise():
    rng = np.random.default_rng(32)
    for _ in range(40):
        arity = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        G = random_multilinear(rng, arity, dim, n_entries=6)
        rows = int(rng.integers(1, 7))
        stacks = [_spread_cvecs(rng, (rows, dim)) for _ in range(arity)]
        got = G.batch(*stacks)
        want = np.array([G(*(x[i] for x in stacks)) for i in range(rows)])
        _assert_bitwise(got, want)


def test_batch_with_empty_entry_table():
    G = MultiLinearMap(2, 3)
    x = np.ones((4, 3), dtype=complex)
    got = G.batch(x, x)
    _assert_bitwise(got, np.zeros((4, 3), dtype=complex))
    _assert_bitwise(got[0], G(x[0], x[0]))


def test_batch_with_zero_rows():
    rng = np.random.default_rng(33)
    G = random_multilinear(rng, 3, 2, n_entries=5)
    empty = np.zeros((0, 1, 1, 2), dtype=complex)
    other = cvec(rng, 6).reshape(1, 3, 1, 2)
    assert G.batch(empty, other, other.reshape(1, 1, 3, 2)).shape == (0, 3, 3, 2)
    assert G.batch(*[np.zeros((0, 2), dtype=complex)] * 3).shape == (0, 2)


def test_batch_single_vectors_match_call():
    rng = np.random.default_rng(34)
    G = random_multilinear(rng, 2, 3, n_entries=7)
    x, y = cvec(rng, 3), cvec(rng, 3)
    _assert_bitwise(G.batch(x, y), G(x, y))


def test_batch_validates_arguments():
    G = MultiLinearMap.scalar_power(2)
    with pytest.raises(ValueError):
        G.batch(np.ones((3, 1), dtype=complex))
    with pytest.raises(ValueError):
        G.batch(np.ones((3, 2), dtype=complex), np.ones((3, 2), dtype=complex))
