"""Exponential-polynomial sums: canonical form, calculus, products."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odexpand import ExpPolySum, LogPowerSum, MultiLinearMap
from odexpand.expsum import (
    mul_apply_exp,
    snap_float,
    snap_scalar,
    trim_small_exp,
)
from odexpand.realify import _ladder_view

from helpers import (
    add_exp_oracle,
    apply_matrix_exp_oracle,
    assert_arrays_bitwise_equal,
    assert_bitwise_equal,
    build_exp_oracle,
    coeff_distance_exp,
    conjugate_exp_oracle,
    cvec,
    derivative_exp_oracle,
    eval_exp_horner_oracle,
    exp_oracle_terms,
    ladder_view_oracle,
    ladder_view_raw_oracle,
    mul_apply_exp_oracle,
    random_expsum,
    random_multilinear,
    scale_exp_oracle,
    trim_small_exp_oracle,
)


def test_opposite_terms_cancel_to_the_zero_element():
    a = ExpPolySum.build(1, [(-1.0, [[1.0]])])
    b = ExpPolySum.build(1, [(-1.0, [[-1.0]])])
    s = a + b
    assert s.is_zero()
    assert s.term_count() == 0
    assert s.items() == []


def test_same_exponent_rows_merge():
    a = ExpPolySum.build(1, [(-1.0, [[0.0], [2.0]])])
    b = ExpPolySum.build(1, [(-1.0, [[3.0], [0.0]])])
    (nu, rows), = (a + b).items()
    assert nu == -1.0
    np.testing.assert_array_equal(rows, [[3.0], [2.0]])


def test_build_is_idempotent_on_random_sums():
    rng = np.random.default_rng(42)
    for _ in range(100):
        s = random_expsum(rng, int(rng.integers(1, 4)), n_terms=4)
        again = ExpPolySum.build(s.dim, s.items())
        assert coeff_distance_exp(again, s) == 0.0
        assert again.exponents() == s.exponents()


def test_eval_worked_cases():
    one = ExpPolySum.build(1, [(0.0, [[1.0]])])
    assert one.eval(5.0) == pytest.approx([1.0])
    te = ExpPolySum.build(1, [(-1.0, [[0.0], [1.0]])])
    assert te.eval(1.0) == pytest.approx([math.exp(-1.0)])
    euler = ExpPolySum.build(1, [(1j, [[1.0]])])
    assert euler.eval(math.pi) == pytest.approx([-1.0 + 0.0j], abs=1e-12)


def test_eval_matches_naive_summation():
    rng = np.random.default_rng(7)
    for _ in range(20):
        s = random_expsum(rng, 3, n_terms=4, max_degree=3)
        t = rng.uniform(0.0, 4.0)
        naive = np.zeros(3, dtype=complex)
        for nu, rows in s.items():
            for j, row in enumerate(rows):
                naive += row * t**j * np.exp(nu * t)
        np.testing.assert_allclose(s.eval(t), naive, rtol=1e-12, atol=1e-12)


def test_exponents_sorted_by_real_then_imag():
    s = ExpPolySum.build(1, [(-1.0 + 1j, [[1.0]]), (-2.0, [[1.0]]), (-1.0 - 1j, [[1.0]])])
    assert s.exponents() == [-2.0 + 0j, -1.0 - 1j, -1.0 + 1j]


def test_nearby_exponents_snap_together():
    s = ExpPolySum.build(1, [(-1.0, [[1.0]]), (-1.0 + 4e-13, [[1.0]])])
    assert s.term_count() == 1
    assert s.exponents() == [-1.0 + 0j]


def test_snap_float_grid():
    assert snap_float(1.0 + 2e-16) == 1.0
    assert snap_float(-0.0) == 0.0
    assert snap_float(0.5) == 0.5
    assert snap_scalar(complex(1e-16, 2.0)) == 2.0j


def test_tiny_rows_are_trimmed_within_a_term():
    s = ExpPolySum.build(1, [(-1.0, [[1.0], [1e-20]])])
    (_, rows), = s.items()
    assert rows.shape[0] == 1


def test_trailing_zero_rows_trimmed_but_interior_kept():
    s = ExpPolySum.build(1, [(-1.0, [[0.0], [1.0], [0.0]])])
    (_, rows), = s.items()
    assert rows.shape[0] == 2


def test_derivative_worked_cases():
    e = ExpPolySum.build(1, [(-1.0, [[1.0]])])
    assert coeff_distance_exp(e.derivative(), e.scale(-1.0)) == 0.0
    te2 = ExpPolySum.build(1, [(-2.0, [[0.0], [1.0]])])
    expected = ExpPolySum.build(1, [(-2.0, [[1.0], [-2.0]])])
    assert coeff_distance_exp(te2.derivative(), expected) < 1e-15


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(10):
        s = random_expsum(rng, 2, n_terms=3, max_degree=2)
        d = s.derivative()
        t = rng.uniform(0.5, 2.5)
        fd = (s.eval(t + h) - s.eval(t - h)) / (2 * h)
        ref = np.abs(d.eval(t)).max() + 1e-12
        assert np.abs(fd - d.eval(t)).max() / ref < 1e-8


def test_derivative_of_zero_is_zero():
    assert ExpPolySum.zero(3).derivative().is_zero()


def test_mul_apply_squares_single_exponentials():
    sq = MultiLinearMap.scalar_power(2)
    e1 = ExpPolySum.build(1, [(-1.0, [[1.0]])])
    out = mul_apply_exp(sq, [e1, e1])
    assert out.exponents() == [-2.0 + 0j]
    np.testing.assert_allclose(out.items()[0][1], [[1.0]])


def test_mul_apply_adds_degrees_and_exponents():
    sq = MultiLinearMap.scalar_power(2)
    te = ExpPolySum.build(1, [(-1.0, [[0.0], [1.0]])])
    e2 = ExpPolySum.build(1, [(-2.0, [[1.0]])])
    out = mul_apply_exp(sq, [te, e2])
    (nu, rows), = out.items()
    assert nu == -3.0
    np.testing.assert_allclose(rows, [[0.0], [1.0]])


def test_mul_apply_matches_pointwise_products():
    rng = np.random.default_rng(19)
    G = MultiLinearMap(2, 2, tuple(
        (int(rng.integers(0, 2)), (int(rng.integers(0, 2)), int(rng.integers(0, 2))),
         complex(*rng.standard_normal(2)))
        for _ in range(5)
    ))
    a = random_expsum(rng, 2, n_terms=3, max_degree=2)
    b = random_expsum(rng, 2, n_terms=2, max_degree=2)
    out = mul_apply_exp(G, [a, b])
    for t in np.linspace(0.0, 3.0, 20):
        np.testing.assert_allclose(
            out.eval(t), G(a.eval(t), b.eval(t)), rtol=1e-10, atol=1e-10
        )


def test_apply_matrix_acts_pointwise():
    rng = np.random.default_rng(23)
    A = cvec(rng, 9).reshape(3, 3)
    s = random_expsum(rng, 3, n_terms=3)
    out = s.apply_matrix(A)
    for t in (0.0, 0.7, 1.9):
        np.testing.assert_allclose(out.eval(t), A @ s.eval(t), rtol=1e-12, atol=1e-12)


def test_conjugate_commutes_with_eval_at_real_times():
    rng = np.random.default_rng(31)
    s = random_expsum(rng, 2, n_terms=3)
    for t in (0.2, 1.4):
        np.testing.assert_allclose(s.conjugate().eval(t), np.conj(s.eval(t)), rtol=1e-12)


def test_in_class_checks_real_part_line():
    # the argument is the signed line: decay at rate mu means in_class(-mu)
    s = ExpPolySum.build(1, [(-2.0 + 3j, [[1.0]]), (-2.0 - 1j, [[1.0]])])
    assert s.in_class(-2.0)
    assert not s.in_class(-1.0)
    mixed = ExpPolySum.build(1, [(-2.0, [[1.0]]), (-1.0, [[1.0]])])
    assert not mixed.in_class(-2.0)
    assert ExpPolySum.zero(1).in_class(-5.0)


def test_degree_and_term_count():
    assert ExpPolySum.zero(2).term_count() == 0
    s = ExpPolySum.build(1, [(-1.0, [[0.0], [1.0]]), (-2.0, [[1.0]])])
    # one coefficient row per degree, terms in (Re, Im) order
    assert [rows.shape[0] - 1 for _, rows in s.items()] == [0, 1]
    assert s.term_count() == 2


def test_sup_norm_scales_linearly():
    rng = np.random.default_rng(37)
    s = random_expsum(rng, 2, n_terms=3)
    assert s.scale(2.0).sup_norm() == pytest.approx(2.0 * s.sup_norm())
    assert ExpPolySum.zero(2).sup_norm() == 0.0


def test_records_round_trip_exactly():
    # expansion.json holds every exponent and coefficient to the last bit
    rng = np.random.default_rng(41)
    s = random_expsum(rng, 3, n_terms=4, max_degree=3)
    recs = json.loads(json.dumps(s.to_records()))
    assert [complex(*r["exponent"]) for r in recs] == s.exponents()
    for rec, (_, rows) in zip(recs, s.items()):
        back = np.array(rec["coeffs"]).view(complex)[..., 0]
        assert np.array_equal(back, rows)


def test_trim_small_exp_uses_external_scale():
    s = ExpPolySum.build(1, [(-1.0, [[1e-12]]), (-2.0, [[1.0]])])
    trimmed = trim_small_exp(s, 1.0, 1e-10)
    assert trimmed.exponents() == [-2.0 + 0j]
    # a tighter rel keeps everything
    assert trim_small_exp(s, 1.0, 1e-14).term_count() == 2


@given(st.lists(st.tuples(st.floats(-3, -0.1), st.floats(-1, 1)), min_size=1, max_size=4))
@settings(max_examples=60, deadline=None)
def test_addition_commutes_exactly(pairs):
    a = ExpPolySum.build(1, [(complex(re, im), [[1.0]]) for re, im in pairs])
    b = ExpPolySum.build(1, [(-1.0, [[0.5], [0.25]])])
    assert coeff_distance_exp(a + b, b + a) == 0.0


def test_polynomial_factors_lose_to_any_extra_decay():
    # (3 + 2t + t^2) e^{-t} against e^{-(1-delta)t}: the quotient dies off
    s = ExpPolySum.build(1, [(-1.0, [[3.0], [2.0], [1.0]])])
    ts = np.linspace(30.0, 100.0, 15)
    vals = np.array([abs(s.eval(t)[0]) * math.exp(0.9 * t) for t in ts])
    assert np.all(np.diff(vals) < 0)
    assert vals[-1] < 1e-2 * vals[0]


def test_perturbed_exponent_does_not_merge():
    base = ExpPolySum.build(1, [(-1.0, [[1.0]])])
    bumped = ExpPolySum.build(1, [(-1.0 + 1e-6, [[1.0]])])
    s = base + bumped
    assert s.term_count() == 2


def _lattice_expsum(rng, dim: int, n_terms: int, max_degree: int) -> ExpPolySum:
    """Exponents on a coarse lattice, so products share many exponent sums."""
    raw = []
    for _ in range(n_terms):
        nu = complex(-int(rng.integers(1, 3)), 0.5 * int(rng.integers(-2, 3)))
        deg = int(rng.integers(0, max_degree + 1))
        rows = cvec(rng, (deg + 1) * dim).reshape(deg + 1, dim)
        raw.append((nu, rows * 10.0 ** rng.integers(-3, 4)))
    return ExpPolySum.build(dim, raw)


def test_mul_apply_matches_term_by_term_oracle_bitwise():
    rng = np.random.default_rng(81)
    for _ in range(40):
        arity = int(rng.integers(1, 4))
        dim = int(rng.integers(1, 5))
        G = random_multilinear(rng, arity, dim, n_entries=int(rng.integers(0, 8)))
        args = []
        for _ in range(arity):
            n_terms, deg = int(rng.integers(0, 5)), int(rng.integers(0, 3))
            if rng.random() < 0.6:
                args.append(_lattice_expsum(rng, dim, n_terms, deg))
            else:
                args.append(random_expsum(rng, dim, n_terms, deg))
        assert_bitwise_equal(mul_apply_exp(G, args), mul_apply_exp_oracle(G, args))


def test_mul_apply_trims_near_cancellation_like_the_oracle():
    # (e^-t + c t e^-2t) * (t e^-2t + d e^-t): the two t e^-3t cross terms
    # cancel down to eps of the unit product, next to rows of size c*d.
    G = MultiLinearMap.scalar_power(2)
    for c in (0.3, 1.7, -2.2):
        for eps in (0.0, 1e-16, 3e-14, 9e-14, 1.1e-13, 5e-13, 1e-11):
            p = ExpPolySum.build(1, [(-1.0, [[1.0]]), (-2.0, [[0.0], [c]])])
            q = ExpPolySum.build(1, [(-2.0, [[0.0], [1.0]]), (-1.0, [[-(1.0 - eps) / c]])])
            got = mul_apply_exp(G, [p, q])
            assert_bitwise_equal(got, mul_apply_exp_oracle(G, [p, q]))


def test_eval_matches_term_by_term_horner_bitwise():
    # eval runs Horner on every term at once over zero-padded rows; mixed
    # degrees exercise the padding, t = 0 and t < 0 the signed zeros.
    rng = np.random.default_rng(83)
    for _ in range(80):
        s = random_expsum(rng, int(rng.integers(1, 4)), int(rng.integers(0, 12)), 4)
        for t in [0.0, 1.0, -0.7] + list(rng.uniform(0.0, 30.0, 4)):
            assert s.eval(t).tobytes() == eval_exp_horner_oracle(s, t).tobytes()



def test_eval_over_a_time_array_matches_scalar_eval_bitwise():
    # Horner over (times, terms, dim) with the terms summed in items() order:
    # each row is the scalar value bit for bit
    rng = np.random.default_rng(84)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        nu = complex(rng.uniform(-2, 0), rng.uniform(-2, 2))
        quadratic = (nu, cvec(rng, 3 * dim).reshape(3, dim))
        s = random_expsum(rng, dim, int(rng.integers(0, 7)), 4) + ExpPolySum.build(dim, [quadratic])
        nus, rows = s.nus, s.rows
        assert rows.shape[1] >= 2 and np.any(nus.imag != 0)
        times = np.concatenate([[0.0, -0.0, 1.0, -0.7], rng.uniform(-1.0, 30.0, 12)])
        for stack in (times, times[4:10], times[:1], times[:0]):
            got = s.eval(stack)
            assert got.shape == (len(stack), dim)
            for t, row in zip(stack.tolist(), got):
                assert_arrays_bitwise_equal(row, s.eval(t))
                assert_arrays_bitwise_equal(row, eval_exp_horner_oracle(s, t))


def test_build_matches_dict_oracle_bitwise():
    rng = np.random.default_rng(82)
    for _ in range(60):
        dim = int(rng.integers(1, 4))
        raw = []
        for _ in range(int(rng.integers(0, 10))):
            nu = complex(-int(rng.integers(1, 3)) + rng.uniform(-4e-13, 4e-13),
                         int(rng.integers(-1, 2)))
            rows = cvec(rng, dim * int(rng.integers(1, 4))).reshape(-1, dim)
            rows *= 10.0 ** rng.integers(-15, 2, size=(rows.shape[0], 1))
            rows[rng.random(rows.shape) < 0.3] = complex(-0.0, -0.0)
            raw.append((nu, rows))
            if rng.random() < 0.3:
                raw.append((nu, -rows[:1] * (1.0 + rng.uniform(-1e-12, 1e-12))))
        assert_bitwise_equal(ExpPolySum.build(dim, raw), build_exp_oracle(dim, raw))


def _lattice_raw(rng, dim: int) -> list:
    """Raw terms on a small exponent lattice, so keys repeat and merge.

    Terms have 1-4 rows; about a third of the entries are -0.0, and some
    middle rows sit below the trim line of their term.
    """
    raw = []
    for _ in range(int(rng.integers(1, 8))):
        nu = complex(-int(rng.integers(1, 3)), int(rng.integers(-1, 2)))
        rows = cvec(rng, dim * int(rng.integers(1, 5))).reshape(-1, dim)
        rows[rng.random(rows.shape) < 0.3] = complex(-0.0, -0.0)
        if rows.shape[0] > 2 and rng.random() < 0.5:
            rows[1] *= 1e-15
        raw.append((nu, rows))
    return raw


def _exp_cases(rng, count: int):
    """(sum, second sum of the same dim): zero, random and lattice sums."""
    for _ in range(count):
        dim = int(rng.integers(1, 5))
        pair = []
        for _ in range(2):
            kind = rng.random()
            if kind < 0.1:
                pair.append(ExpPolySum.zero(dim))
            elif kind < 0.45:
                pair.append(random_expsum(rng, dim, int(rng.integers(0, 6)), int(rng.integers(0, 4))))
            else:
                pair.append(ExpPolySum.build(dim, _lattice_raw(rng, dim)))
        yield tuple(pair)


def test_array_operators_match_their_term_loops_bitwise():
    rng = np.random.default_rng(91)
    for s, other in _exp_cases(rng, 120):
        for a in (-1.0, 0.37, complex(*rng.standard_normal(2))):
            assert_bitwise_equal(s.scale(a), scale_exp_oracle(s, a))
        assert_bitwise_equal(s + other, add_exp_oracle(s, other))
        assert_bitwise_equal(other + s, add_exp_oracle(other, s))
        assert_bitwise_equal(s.conjugate(), conjugate_exp_oracle(s))
        A = cvec(rng, s.dim * s.dim).reshape(s.dim, s.dim)
        assert_bitwise_equal(s.apply_matrix(A), apply_matrix_exp_oracle(s, A))
        assert_bitwise_equal(s.derivative(), derivative_exp_oracle(s))
        top = s.sup_norm()
        for scale in (0.0, 1.0, top, 2e12 * top, 1e14 * top):
            assert_bitwise_equal(trim_small_exp(s, scale), trim_small_exp_oracle(s, scale))
        assert_bitwise_equal(_ladder_view(s), ladder_view_oracle(s))


def test_items_cut_each_term_at_its_last_kept_row_and_terms_is_read_only():
    rng = np.random.default_rng(92)
    for _ in range(80):
        dim = int(rng.integers(1, 4))
        raw = _lattice_raw(rng, dim)
        s = ExpPolySum.build(dim, raw)
        want = exp_oracle_terms(dim, raw)
        assert [nu for nu, _ in s.items()] == list(want)
        lengths = [c.shape[0] for c in want.values()]
        assert [c.shape[0] for _, c in s.items()] == lengths
        assert s.rows.shape == (len(want), max([1] + lengths), dim)
        for (_, c), w in zip(s.items(), want.values()):
            assert_arrays_bitwise_equal(c, w)
        with pytest.raises(TypeError):
            s.terms[-1.0 + 0j] = np.zeros((1, dim), dtype=complex)
        assert list(s.terms) == list(want)


def test_add_and_ladder_view_pass_raw_terms_in_loop_order(monkeypatch):
    # Merged rows are summed in raw order, so the order is part of the
    # bit-for-bit contract: self's terms before other's, and the ladder
    # view's rows term by term with j ascending.
    seen = []
    exp_from_arrays = ExpPolySum.from_arrays.__func__
    ladder_from_arrays = LogPowerSum.from_arrays.__func__

    def record_exp(cls, dim, nus, rows):
        seen.append((nus, rows))
        return exp_from_arrays(cls, dim, nus, rows)

    def record_ladder(cls, dim, depth, alphas, xis):
        seen.append((alphas, xis))
        return ladder_from_arrays(cls, dim, depth, alphas, xis)

    monkeypatch.setattr(ExpPolySum, "from_arrays", classmethod(record_exp))
    monkeypatch.setattr(LogPowerSum, "from_arrays", classmethod(record_ladder))
    rng = np.random.default_rng(93)
    for s, other in _exp_cases(rng, 60):
        seen.clear()
        s + other
        nus, rows = seen[-1]
        raw = s.items() + other.items()
        assert_arrays_bitwise_equal(nus, np.array([nu for nu, _ in raw], dtype=complex))
        for k, (_, c) in enumerate(raw):
            assert_arrays_bitwise_equal(rows[k, : c.shape[0]], c)
            assert not rows[k, c.shape[0]:].any()
        seen.clear()
        _ladder_view(s)
        alphas, xis = seen[-1]
        raw = ladder_view_raw_oracle(s)
        assert_arrays_bitwise_equal(alphas, np.array([a for a, _ in raw], dtype=complex).reshape(-1, 2))
        assert_arrays_bitwise_equal(xis, np.array([v for _, v in raw], dtype=complex).reshape(-1, s.dim))
