"""Iterated-log power sums: evaluation, ladder calculus, shifted inverses."""

import json
import math

import numpy as np
import pytest
import scipy.linalg

from odexpand import (
    LogPowerSum,
    MultiLinearMap,
    ShiftedInverseCache,
    descent_op,
    exp_zero,
    iter_log,
    shifted_inverse,
    time_derivative,
    weight_op,
)
from odexpand.expsum import EXPONENT_GRID, snap_float, snap_scalar
from odexpand.logpower import (
    exponent_in_class,
    mul_apply_logpower,
    trim_small_logpower,
)

from helpers import (
    apply_matrix_oracle,
    assert_arrays_bitwise_equal,
    assert_bitwise_equal,
    build_logpower_oracle,
    coeff_distance_logpower,
    conjugate_oracle,
    cvec,
    descent_op_oracle,
    embed_oracle,
    eval_logpower_oracle,
    mul_apply_logpower_oracle,
    random_alpha,
    random_logpower,
    random_matrix,
    random_multilinear,
    scale_oracle,
    shifted_inverse_oracle,
    weight_op_oracle,
)


def test_eval_power_only():
    p = LogPowerSum.build(1, 1, [((0.0, -1.0, 0.0), [1.0])])
    assert p.eval(4.0) == pytest.approx([0.25])


def test_eval_imaginary_exponential_component():
    p = LogPowerSum.build(1, 0, [((1j, 0.0), [1.0])])
    v = p.eval(math.pi)
    assert v[0] == pytest.approx(-1.0 + 0.0j, abs=1e-12)


def test_eval_imaginary_log_power():
    # (ln t)^i at ln t = e^pi: unit modulus, argument pi
    p = LogPowerSum.build(1, 1, [((0.0, 0.0, 1j), [1.0])])
    t = math.exp(math.exp(math.pi))
    v = p.eval(t)[0]
    assert abs(v) == pytest.approx(1.0, rel=1e-12)
    assert math.atan2(v.imag, v.real) == pytest.approx(math.pi, abs=1e-9)


def test_eval_gate_is_strict():
    p = LogPowerSum.build(1, 1, [((0.0, -1.0, 0.0), [1.0])])
    with pytest.raises(ValueError, match="below the depth-1 evaluation threshold"):
        p.eval(math.e)


def _hard_ladder_times(rng, depth: int, lo: float, hi: float) -> np.ndarray:
    """Times in (lo, hi) at which a vectorized np.log ladder rounds some entry
    differently from the math.log one (on platforms where they differ)."""
    t = rng.uniform(lo, hi, 100_000)
    vec, chain = t, t.tolist()
    differs = np.zeros(t.shape, dtype=bool)
    for _ in range(depth + 1):
        vec = np.log(vec)
        chain = [math.log(x) for x in chain]
        differs |= vec != np.array(chain)
    return t[differs]


@pytest.mark.parametrize("depth", [0, 1, 2])
def test_eval_over_a_time_array_matches_scalar_eval_bitwise(depth):
    # each row of a stacked eval is the scalar value bit for bit: the ladder
    # is a math.log chain per time and each time takes its own matrix-vector
    # and vector-matrix products
    rng = np.random.default_rng(70 + depth)
    lo = exp_zero(depth + 1)
    times = np.concatenate(
        [_hard_ladder_times(rng, depth, lo, 300.0 * lo)[:40], rng.uniform(lo, 300.0 * lo, 40)]
    )
    for _ in range(12):
        dim = int(rng.integers(1, 4))
        p = random_logpower(rng, dim, depth, int(rng.integers(2, 7)), m=0, mu=-1.0)
        assert p.term_count() >= 2 and np.iscomplexobj(p.alphas)
        for stack in (times, times[:6], times[:1], times[:0]):
            got = p.eval(stack)
            assert got.shape == (len(stack), dim)
            for t, row in zip(stack.tolist(), got):
                assert_arrays_bitwise_equal(row, eval_logpower_oracle(p, t))
                assert_arrays_bitwise_equal(row, p.eval(t))


def test_eval_gate_checks_every_stacked_time():
    p = LogPowerSum.build(1, 1, [((0.0, -1.0, 0.0), [1.0])])
    gate = exp_zero(2)
    for bad in (gate, math.nextafter(gate, 0.0), 1.0, -5.0, math.nan):
        for stack in ([bad], [10.0, 20.0, bad], [bad, 10.0]):
            with pytest.raises(ValueError, match="below the depth-1 evaluation threshold") as e:
                p.eval(np.array(stack))
            assert str(e.value).startswith(f"t = {bad!r} below")
    p.eval(np.array([math.nextafter(gate, 3.0), 10.0]))


def test_eval_matches_naive_product():
    rng = np.random.default_rng(5)
    for _ in range(20):
        depth = int(rng.integers(0, 3))
        p = random_logpower(rng, 2, depth, n_terms=3, m=0, mu=-1.0)
        t = 2.2 * exp_zero(depth + 1) + rng.uniform(0.0, 5.0)
        naive = np.zeros(2, dtype=complex)
        for alpha, xi in p.items():
            factor = complex(1.0)
            for j, a in enumerate(alpha):
                comp = iter_log(j - 1, t)
                factor *= np.exp(a * math.log(comp)) if j else np.exp(a * t)
            naive += xi * factor
        np.testing.assert_allclose(p.eval(t), naive, rtol=1e-10, atol=1e-12)


def test_build_merges_and_cancels():
    raw = [((0.0, -1.0), [1.0]), ((0.0, -1.0), [-1.0])]
    assert LogPowerSum.build(1, 0, raw).is_zero()
    raw = [((0.0, -1.0), [1.0]), ((0.0, -1.0 + 3e-13), [2.0])]
    p = LogPowerSum.build(1, 0, raw)
    assert p.term_count() == 1
    np.testing.assert_allclose(p.items()[0][1], [3.0])


def test_build_rejects_wrong_alpha_length():
    with pytest.raises(ValueError):
        LogPowerSum.build(1, 1, [((0.0, -1.0), [1.0])])


def test_perturbed_alpha_does_not_merge():
    raw = [((0.0, -1.0), [1.0]), ((0.0, -1.0 + 1e-6), [1.0])]
    assert LogPowerSum.build(1, 0, raw).term_count() == 2


def test_weight_op_worked_cases():
    p = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0])])
    out = weight_op(0, p)
    assert coeff_distance_logpower(out, p.scale(-1.0)) == 0.0
    q = LogPowerSum.build(1, 0, [((1j, -1.0), [2.0])])
    assert coeff_distance_logpower(weight_op(-1, q), q.scale(1j)) == 0.0
    assert weight_op(0, LogPowerSum.zero(1, 0)).is_zero()


def test_weight_op_index_range():
    p = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0])])
    with pytest.raises(ValueError, match="component index 1 outside depth 0"):
        weight_op(1, p)


def test_descent_op_worked_cases():
    p = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0])])
    expected = LogPowerSum.build(1, 0, [((0.0, -2.0), [-1.0])])
    assert coeff_distance_logpower(descent_op(p), expected) < 1e-15

    q = LogPowerSum.build(1, 1, [((0.0, 0.0, 1j), [1.0])])
    expected = LogPowerSum.build(1, 1, [((0.0, -1.0, 1j - 1.0), [1j])])
    assert coeff_distance_logpower(descent_op(q), expected) < 1e-15


def test_descent_op_needs_power_scale():
    p = LogPowerSum.build(1, -1, [((0.5j,), [1.0])])
    with pytest.raises(ValueError, match="descent needs at least the power scale"):
        descent_op(p)


def test_time_derivative_matches_finite_differences():
    rng = np.random.default_rng(17)
    for _ in range(10):
        depth = int(rng.integers(0, 3))
        p = random_logpower(rng, 2, depth, n_terms=2, m=0, mu=-1.0)
        # keep the fast scale purely oscillatory so values stay O(1)
        d = time_derivative(p)
        t = 2.2 * exp_zero(depth + 1)
        h = 5e-4
        fd = (p.eval(t + h) - p.eval(t - h)) / (2 * h)
        ref = np.abs(d.eval(t)).max()
        assert np.abs(fd - d.eval(t)).max() <= 1e-6 * max(ref, 1e-9)


def test_shifted_inverse_constant():
    p = LogPowerSum.build(1, 0, [((0.0, 0.0), [1.0])])
    q = shifted_inverse(np.array([[2.0]]), p)
    np.testing.assert_allclose(q.items()[0][1], [0.5])


def test_shifted_inverse_imaginary_shift():
    p = LogPowerSum.build(1, 0, [((1j, 0.0), [1.0])])
    q = shifted_inverse(np.array([[1.0]]), p)
    np.testing.assert_allclose(q.items()[0][1], [(1.0 - 1j) / 2.0], rtol=1e-14)


def test_shifted_inverse_inverts_stationary_operator():
    rng = np.random.default_rng(23)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        A = random_matrix(rng, n)
        p = random_logpower(rng, n, int(rng.integers(0, 3)), n_terms=3, m=0, mu=-1.0)
        q = shifted_inverse(A, p)
        back = q.apply_matrix(A) + weight_op(-1, q)
        scale = max(p.sup_norm(), 1.0)
        assert coeff_distance_logpower(back, p) <= 1e-12 * scale


def test_shift_cache_rejects_real_exponential_part():
    cache = ShiftedInverseCache(np.array([[1.0]]))
    with pytest.raises(ValueError, match="is not purely imaginary"):
        cache.solve(0.5 + 1j, np.array([1.0 + 0j]))


def test_shift_cache_singular_matrix():
    cache = ShiftedInverseCache(np.array([[0.0]]))
    with pytest.raises(ValueError, match="numerically singular"):
        cache.solve(0.0, np.array([1.0 + 0j]))
    # a nonzero imaginary shift onto the spectrum of -A
    cache = ShiftedInverseCache(np.diag([1.0, 2j]))
    with pytest.raises(ValueError, match="numerically singular"):
        cache.solve(-2j, np.array([1.0 + 0j, 1.0]))


def test_shift_cache_reuses_factorizations():
    rng = np.random.default_rng(29)
    A = random_matrix(rng, 3)
    cache = ShiftedInverseCache(A)
    xi = cvec(rng, 3)
    first = cache.solve(2j, xi)
    second = cache.solve(2j, xi)
    np.testing.assert_array_equal(first, second)
    np.testing.assert_allclose((A + 2j * np.eye(3)) @ first, xi, rtol=1e-11)


def test_shift_cache_solve_matches_lapack_lu():
    # scipy's getrf/getrs as the reference; shifts a fraction of the exponent
    # grid apart snap to one shift and must solve against the same matrix
    rng = np.random.default_rng(83)
    for _ in range(200):
        n = int(rng.integers(1, 5))
        A = random_matrix(rng, n)
        cache = ShiftedInverseCache(A)
        omega = snap_float(rng.uniform(-3.0, 3.0))
        for shift in (1j * omega, 1j * rng.uniform(-3.0, 3.0)):
            xi = cvec(rng, n)
            B = A + snap_scalar(shift) * np.eye(n)
            want = scipy.linalg.lu_solve(scipy.linalg.lu_factor(B), xi)
            got = cache.solve(shift, xi)
            assert np.abs(got - want).max() <= 1e-15 * np.abs(want).max()
        near = 1j * (omega + 0.3 * EXPONENT_GRID)
        np.testing.assert_array_equal(cache.solve(near, xi), cache.solve(1j * omega, xi))


def test_embed_pads_with_zero_exponents():
    p = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0])])
    up = p.embed(2)
    assert up.depth == 2
    assert up.items()[0][0] == (0.0, -1.0, 0.0, 0.0)


def test_embed_same_depth_is_identity():
    rng = np.random.default_rng(31)
    p = random_logpower(rng, 2, 1, n_terms=3)
    assert coeff_distance_logpower(p.embed(1), p) == 0.0


def test_embed_cannot_reduce():
    p = LogPowerSum.build(1, 1, [((0.0, -1.0, 0.0), [1.0])])
    with pytest.raises(ValueError, match="cannot reduce depth by embedding"):
        p.embed(0)


def test_embed_preserves_evaluation():
    rng = np.random.default_rng(37)
    for _ in range(20):
        depth = int(rng.integers(0, 2))
        p = random_logpower(rng, 2, depth, n_terms=2, m=0, mu=-0.5)
        up = p.embed(depth + int(rng.integers(1, 3)))
        t = 2.5 * exp_zero(up.depth + 1)
        np.testing.assert_allclose(up.eval(t), p.eval(t), rtol=1e-12)


def test_add_across_depths_is_embed_then_add_bitwise():
    rng = np.random.default_rng(53)
    for _ in range(40):
        dim = int(rng.integers(1, 4))
        da, db = (int(d) for d in rng.integers(0, 3, size=2))
        a = random_logpower(rng, dim, da, n_terms=int(rng.integers(0, 4)))
        b = random_logpower(rng, dim, db, n_terms=int(rng.integers(0, 4)))
        if da <= db and rng.uniform() < 0.5:  # shared keys merge across the depths
            b = b + a.embed(db).scale(-0.5)
        depth = max(da, db)
        want = LogPowerSum.build(
            dim, depth, list(a.embed(depth).terms.items()) + list(b.embed(depth).terms.items())
        )
        for got in (a + b, a.embed(depth) + b, a + b.embed(depth)):
            assert got.depth == depth
            assert_bitwise_equal(got, want)
        diff = a - b
        assert diff.depth == depth
        assert_bitwise_equal(diff, a.embed(depth) - b.embed(depth))


def test_mul_apply_square_of_inverse_power():
    sq = MultiLinearMap.scalar_power(2)
    p = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0])])
    out = mul_apply_logpower(sq, [p, p])
    assert out.items()[0][0] == (0.0, -2.0)


def test_mul_apply_binomial_expansion():
    sq = MultiLinearMap.scalar_power(2)
    p = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0]), ((0.0, -2.0), [1.0])])
    out = mul_apply_logpower(sq, [p, p])
    got = {alpha: complex(xi[0]) for alpha, xi in out.items()}
    assert got == {
        (0.0, -2.0): 1.0,
        (0.0, -3.0): 2.0,
        (0.0, -4.0): 1.0,
    }


def test_mul_apply_embeds_mixed_depths():
    sq = MultiLinearMap.scalar_power(2)
    a = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0])])
    b = LogPowerSum.build(1, 1, [((0.0, 0.0, -1.0), [1.0])])
    out = mul_apply_logpower(sq, [a, b])
    assert out.depth == 1
    assert out.items()[0][0] == (0.0, -1.0, -1.0)


def test_mul_apply_matches_pointwise():
    rng = np.random.default_rng(41)
    G = MultiLinearMap(2, 2, tuple(
        (int(rng.integers(0, 2)), (int(rng.integers(0, 2)), int(rng.integers(0, 2))),
         complex(*rng.standard_normal(2)))
        for _ in range(5)
    ))
    a = random_logpower(rng, 2, 1, n_terms=2, m=0, mu=-1.0)
    b = random_logpower(rng, 2, 1, n_terms=2, m=0, mu=-0.5)
    out = mul_apply_logpower(G, [a, b])
    for t in np.geomspace(20.0, 200.0, 8):
        np.testing.assert_allclose(
            out.eval(t), G(a.eval(t), b.eval(t)), rtol=1e-10, atol=1e-12
        )


def test_apply_matrix_acts_pointwise():
    rng = np.random.default_rng(43)
    A = cvec(rng, 4).reshape(2, 2)
    p = random_logpower(rng, 2, 0, n_terms=3, m=0, mu=-1.0)
    out = p.apply_matrix(A)
    for t in (3.0, 9.0):
        np.testing.assert_allclose(out.eval(t), A @ p.eval(t), rtol=1e-12)


def test_exponent_in_class_pins_prefix():
    # class (m, mu): purely imaginary up to index m, real part mu at m+1
    assert exponent_in_class((0.0, -1.5, 0.3 + 1j), 0, -1.5)
    assert not exponent_in_class((0.1, -1.5, 0.0), 0, -1.5)
    assert not exponent_in_class((0.0, -1.0, 0.0), 0, -1.5)
    assert exponent_in_class((2j, 0.5j, -0.5, 1.0), 1, -0.5)
    assert not exponent_in_class((2j, -0.1 + 0.5j, -0.5, 1.0), 1, -0.5)


def test_in_class_over_all_terms():
    p = LogPowerSum.build(1, 1, [((1j, -1.0, 5.0), [1.0]), ((0.0, -1.0, -2j), [1.0])])
    assert p.in_class(0, -1.0)
    assert not p.in_class(0, -2.0)
    assert not p.in_class(1, -1.0)
    assert LogPowerSum.zero(1, 1).in_class(0, -3.0)


def test_trim_small_logpower_uses_external_scale():
    p = LogPowerSum.build(1, 0, [((0.0, -1.0), [1e-12]), ((0.0, -2.0), [1.0])])
    trimmed = trim_small_logpower(p, 1.0, 1e-10)
    assert trimmed.term_count() == 1
    assert trim_small_logpower(p, 1.0, 1e-14).term_count() == 2


def test_records_round_trip_exactly():
    # expansion.json holds every exponent and coefficient to the last bit
    rng = np.random.default_rng(47)
    p = random_logpower(rng, 3, 2, n_terms=4)
    recs = json.loads(json.dumps(p.to_records()))
    assert [tuple(complex(*a) for a in r["alpha"]) for r in recs] == [a for a, _ in p.items()]
    for rec, (_, xi) in zip(recs, p.items()):
        assert np.array_equal(np.array(rec["xi"]).view(complex)[:, 0], xi)


def test_conjugate_commutes_with_eval():
    rng = np.random.default_rng(53)
    p = random_logpower(rng, 2, 1, n_terms=3, m=0, mu=-1.0)
    for t in (20.0, 80.0):
        np.testing.assert_allclose(p.conjugate().eval(t), np.conj(p.eval(t)), rtol=1e-12)


def test_decay_ordering_against_coarser_scale():
    # p sits one rung deeper than (ln t)^(-1): dividing by (ln t)^(-1+delta)
    # must decay, monotonically on the tail of a geometric grid
    # iterated logs move glacially, so only a small strict drop is testable
    p = LogPowerSum.build(1, 2, [((0.0, 0.0, -1.0, 0.7), [1.0])])
    ts = np.geomspace(1e2, 1e12, 14)
    for delta, drop in ((0.5, 0.9), (1.0, 0.6)):
        vals = np.array([abs(p.eval(t)[0]) / math.log(t) ** (-1.0 + delta) for t in ts])
        tail = vals[-10:]
        assert np.all(np.diff(tail) < 0)
        assert tail[-1] < drop * tail[0]


def _lattice_logpower(rng, dim: int, depth: int, n_terms: int) -> LogPowerSum:
    """Exponents on a coarse lattice, so products share many exponent sums."""
    raw = []
    for _ in range(n_terms):
        alpha = [complex(int(rng.integers(-2, 1)), 0.5 * int(rng.integers(-2, 3)))]
        alpha += [complex(0.5 * int(rng.integers(-3, 1)), 0.0) for _ in range(depth + 1)]
        raw.append((alpha, cvec(rng, dim) * 10.0 ** rng.integers(-3, 4)))
    return LogPowerSum.build(dim, depth, raw)


def test_mul_apply_matches_term_by_term_oracle_bitwise():
    rng = np.random.default_rng(71)
    for _ in range(40):
        arity = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        G = random_multilinear(rng, arity, dim, n_entries=int(rng.integers(0, 8)))
        make = _lattice_logpower if rng.random() < 0.6 else random_logpower
        args = [
            make(rng, dim, int(rng.integers(0, 3)), int(rng.integers(0, 6)))
            for _ in range(arity)
        ]
        assert_bitwise_equal(mul_apply_logpower(G, args), mul_apply_logpower_oracle(G, args))


def test_mul_apply_trims_near_cancellation_like_the_oracle():
    # x*y over p = e^a + c e^b and q = e^b + d e^a: the two cross terms land
    # on a+b and cancel down to eps of the unit product.
    G = MultiLinearMap.scalar_power(2)
    a, b = (0.0, -1.0), (0.0, -1.5)
    for c in (0.3, 1.7, -2.2):
        for eps in (0.0, 1e-16, 3e-14, 9e-14, 1.1e-13, 5e-13, 1e-11):
            p = LogPowerSum.build(1, 0, [(a, [1.0]), (b, [c])])
            q = LogPowerSum.build(1, 0, [(b, [1.0]), (a, [-(1.0 - eps) / c])])
            got = mul_apply_logpower(G, [p, q])
            assert_bitwise_equal(got, mul_apply_logpower_oracle(G, [p, q]))
            top = max(abs(c), 1.0 / abs(c))
            assert ((0j, -2.5 + 0j) in got.terms) == (eps > 1e-13 * top)


def test_build_matches_dict_oracle_bitwise():
    rng = np.random.default_rng(72)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        depth = int(rng.integers(-1, 3))
        raw = []
        for _ in range(int(rng.integers(0, 12))):
            alpha = [complex(int(rng.integers(-1, 2)), int(rng.integers(-1, 2)))
                     for _ in range(depth + 2)]
            # Sub-grid offsets snap onto the same key; -0.0 entries keep their sign.
            alpha[0] += complex(rng.uniform(-4e-13, 4e-13), 0.0)
            xi = cvec(rng, dim) * 10.0 ** rng.integers(-15, 2)
            xi[rng.random(dim) < 0.3] = complex(-0.0, -0.0)
            raw.append((tuple(alpha), xi))
            if rng.random() < 0.3:
                raw.append((tuple(alpha), -xi * (1.0 + rng.uniform(-1e-12, 1e-12))))
        got = LogPowerSum.build(dim, depth, raw)
        assert_bitwise_equal(got, build_logpower_oracle(dim, depth, raw))


def test_from_arrays_of_nothing_is_zero():
    p = LogPowerSum.from_arrays(2, 1, np.zeros((0, 3), dtype=complex), np.zeros((0, 2)))
    assert p.is_zero() and p.depth == 1 and p.dim == 2


def _descent_chain(rng, dim: int, depth: int) -> LogPowerSum:
    """Terms y + (0, 1, .., 1, 0, ..) with j+1 ones: each one's j-th descent lands on y."""
    y = random_alpha(rng, depth)
    raw = [
        ([a + (1 <= i <= j + 1) for i, a in enumerate(y)], cvec(rng, dim))
        for j in range(depth + 1)
    ]
    return LogPowerSum.build(dim, depth, raw)


def _oracle_cases(rng, count: int):
    """Random sums at depths 0-2.

    Lattice sums share keys and zero exponents; descent chains make
    descent_op sum three rows into one key, where the order of the sum shows.
    """
    for _ in range(count):
        dim = int(rng.integers(1, 5))
        depth = int(rng.integers(0, 3))
        n_terms = int(rng.integers(0, 7))
        kind = rng.random()
        if kind < 0.4:
            yield _lattice_logpower(rng, dim, depth, n_terms)
        elif kind < 0.7:
            yield random_logpower(rng, dim, depth, n_terms)
        else:
            yield _descent_chain(rng, dim, depth) + random_logpower(rng, dim, depth, n_terms)


def test_array_operators_match_their_term_loops_bitwise():
    rng = np.random.default_rng(73)
    for p in _oracle_cases(rng, 60):
        for a in (-1.0, 0.37, complex(*rng.standard_normal(2))):
            assert_bitwise_equal(p.scale(a), scale_oracle(p, a))
        assert_bitwise_equal(p.conjugate(), conjugate_oracle(p))
        A = cvec(rng, p.dim * p.dim).reshape(p.dim, p.dim)
        assert_bitwise_equal(p.apply_matrix(A), apply_matrix_oracle(p, A))
        up = p.depth + int(rng.integers(1, 3))
        assert_bitwise_equal(p.embed(up), embed_oracle(p, up))
        for j in range(-1, p.depth + 1):
            assert_bitwise_equal(weight_op(j, p), weight_op_oracle(j, p))
        assert_bitwise_equal(descent_op(p), descent_op_oracle(p))


def test_shifted_inverse_matches_its_term_loop_bitwise():
    rng = np.random.default_rng(79)
    for _ in range(40):
        dim = int(rng.integers(1, 5))
        depth = int(rng.integers(0, 3))
        # a(-1) purely imaginary, and repeated so shifts share factorizations
        p = random_logpower(rng, dim, depth, n_terms=int(rng.integers(0, 6)), m=0, mu=-1.0)
        p = p + p.scale(0.5).embed(depth + 1).conjugate()
        A = random_matrix(rng, dim)
        assert_bitwise_equal(shifted_inverse(A, p), shifted_inverse_oracle(A, p))
