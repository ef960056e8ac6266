"""Exponential-polynomial sums: canonical form, calculus, products."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odexpand import ExpPolySum, MultiLinearMap, ladder_view
from odexpand.cli import build_problem
from odexpand.expsum import (
    mul_apply_exp,
    snap_float,
    snap_scalar,
)
from odexpand.logpower import LogPowerSum, ladder_view, time_derivative

from helpers import (
    emitted,
    emitted_rows,
    add_exp_oracle,
    assert_arrays_bitwise_equal,
    assert_bitwise_equal,
    bench_module,
    build_exp_oracle,
    coeff_distance_exp,
    coeff_distance_logpower,
    cvec,
    derivative_exp_oracle,
    eval_exp_horner_oracle,
    exp_oracle_terms,
    kernel_exp_oracle,
    ladder_view_oracle,
    ladder_view_raw_oracle,
    mul_apply_exp_oracle,
    mul_apply_exp_padded_oracle,
    peak_bytes,
    random_expsum,
    random_multilinear,
    scalar_power,
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
        assert again.nus.tolist() == s.nus.tolist()


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
    assert s.nus.tolist() == [-2.0 + 0j, -1.0 - 1j, -1.0 + 1j]


def test_nearby_exponents_snap_together():
    s = ExpPolySum.build(1, [(-1.0, [[1.0]]), (-1.0 + 4e-13, [[1.0]])])
    assert s.term_count() == 1
    assert s.nus.tolist() == [-1.0 + 0j]


def test_snap_float_grid():
    assert snap_float(1.0 + 2e-16) == 1.0
    assert snap_float(-0.0) == 0.0
    assert snap_float(0.5) == 0.5
    assert snap_scalar(complex(1e-16, 2.0)) == 2.0j


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_build_rejects_a_non_finite_coefficient(bad):
    # a NaN row norm fails every trim comparison, which used to drop its term
    with pytest.raises(ValueError, match="non-finite coefficient"):
        ExpPolySum.build(1, [(-1.0, [[bad]]), (-2.0, [[1.0]])])
    with pytest.raises(ValueError, match="non-finite coefficient"):
        ExpPolySum.build(2, [(-1.0, [[1.0, 0.0], [0.0, bad]])])


def test_tiny_rows_are_trimmed_within_a_term():
    s = ExpPolySum.build(1, [(-1.0, [[1.0], [1e-20]])])
    (_, rows), = s.items()
    assert rows.shape[0] == 1


def test_trailing_zero_rows_trimmed_but_interior_kept():
    s = ExpPolySum.build(1, [(-1.0, [[0.0], [1.0], [0.0]])])
    (_, rows), = s.items()
    assert rows.shape[0] == 2


def _derivative(s: ExpPolySum) -> LogPowerSum:
    """d/dt of an exponential sum, taken on its depth-0 ladder view."""
    return time_derivative(ladder_view(s))


def test_derivative_worked_cases():
    e = ExpPolySum.build(1, [(-1.0, [[1.0]])])
    minus_e = ExpPolySum.build(1, [(-1.0, [[-1.0]])])
    assert coeff_distance_logpower(_derivative(e), ladder_view(minus_e)) == 0.0
    # (t e^{-2t})' = e^{-2t} - 2t e^{-2t}: the t^1 row descends to t^0
    te2 = ExpPolySum.build(1, [(-2.0, [[0.0], [1.0]])])
    expected = ExpPolySum.build(1, [(-2.0, [[1.0], [-2.0]])])
    assert coeff_distance_logpower(_derivative(te2), ladder_view(expected)) < 1e-15


def test_derivative_matches_finite_differences():
    # the depth-0 view evaluates for t > 1 only
    rng = np.random.default_rng(3)
    h = 1e-6
    for _ in range(10):
        s = random_expsum(rng, 2, n_terms=3, max_degree=2)
        d = _derivative(s)
        t = rng.uniform(1.5, 3.5)
        fd = (s.eval(t + h) - s.eval(t - h)) / (2 * h)
        ref = np.abs(d.eval(t)).max() + 1e-12
        assert np.abs(fd - d.eval(t)).max() / ref < 1e-8


def test_derivative_of_zero_is_zero():
    assert _derivative(ExpPolySum.zero(3)).is_zero()


def test_mul_apply_squares_single_exponentials():
    sq = scalar_power(2)
    e1 = ExpPolySum.build(1, [(-1.0, [[1.0]])])
    out = mul_apply_exp(sq, [e1, e1])
    assert out.nus.tolist() == [-2.0 + 0j]
    np.testing.assert_allclose(out.items()[0][1], [[1.0]])


def test_mul_apply_adds_degrees_and_exponents():
    sq = scalar_power(2)
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
            out.eval(t), G.batch(a.eval(t), b.eval(t)), rtol=1e-10, atol=1e-10
        )


def test_ladder_view_in_class_checks_real_part_line():
    # an exponential sum's rate class is its ladder view's (-1, Re nu) class,
    # whatever its polynomial degrees: decay at rate mu is in_class(-1, -mu)
    s = ExpPolySum.build(1, [(-2.0 + 3j, [[1.0], [0.0], [2.0]]), (-2.0 - 1j, [[1.0]])])
    assert ladder_view(s).in_class(-1, -2.0)
    assert not ladder_view(s).in_class(-1, -1.0)
    mixed = ExpPolySum.build(1, [(-2.0, [[1.0]]), (-1.0, [[1.0]])])
    assert not ladder_view(mixed).in_class(-1, -2.0)
    assert ladder_view(ExpPolySum.zero(1)).in_class(-1, -5.0)


def test_degree_and_term_count():
    assert ExpPolySum.zero(2).term_count() == 0
    s = ExpPolySum.build(1, [(-1.0, [[0.0], [1.0]]), (-2.0, [[1.0]])])
    # one coefficient row per degree, terms in (Re, Im) order
    assert [rows.shape[0] - 1 for _, rows in s.items()] == [0, 1]
    assert s.term_count() == 2


def test_sup_norm_scales_linearly():
    rng = np.random.default_rng(37)
    s = random_expsum(rng, 2, n_terms=3)
    doubled = ExpPolySum.from_pieces(s.dim, [(s.nus, 2.0 * s.rows)])
    assert doubled.sup_norm() == pytest.approx(2.0 * s.sup_norm())
    assert ExpPolySum.zero(2).sup_norm() == 0.0


def test_records_round_trip_exactly():
    # expansion.json holds every exponent and coefficient to the last bit
    rng = np.random.default_rng(41)
    s = random_expsum(rng, 3, n_terms=4, max_degree=3)
    recs = json.loads(json.dumps(s.to_records()))
    assert [complex(*r["exponent"]) for r in recs] == s.nus.tolist()
    for rec, (_, rows) in zip(recs, s.items()):
        back = np.array(rec["coeffs"]).view(complex)[..., 0]
        assert np.array_equal(back, rows)


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
        got = mul_apply_exp(G, args)
        assert_bitwise_equal(got, mul_apply_exp_oracle(G, args))
        assert_bitwise_equal(got, mul_apply_exp_padded_oracle(G, args))


def _ragged_expsum(rng, dim: int, lengths, signed_zeros: bool = False) -> ExpPolySum:
    """Terms of the given row counts on lattice exponents, each a lone term.

    With signed_zeros, about a third of the entries become -0.0 (a lone
    term keeps its rows as given), never a whole row.
    """
    raw = []
    for i, n in enumerate(lengths):
        rows = cvec(rng, n * dim).reshape(n, dim)
        if signed_zeros:
            parts = rows.view(float).reshape(n, 2 * dim)
            parts[rng.random(parts.shape) < 0.35] = -0.0
            parts[:, 0] = rng.standard_normal(n)
        raw.append((complex(-1.0 - i, 0.5 * (i % 3)), rows))
    s = ExpPolySum.build(dim, raw)
    assert sorted(s._lengths.tolist()) == sorted(lengths)
    return s


def _assert_mul_apply_matches_both_oracles(G, args) -> ExpPolySum:
    got = mul_apply_exp(G, args)
    assert_bitwise_equal(got, mul_apply_exp_oracle(G, args))
    assert_bitwise_equal(got, mul_apply_exp_padded_oracle(G, args))
    return got


@pytest.mark.parametrize("signed_zeros", [False, True])
@pytest.mark.parametrize(
    "lengths",
    [
        [(1, 6)],
        [(6, 1, 2)],
        [(1, 6), (3, 1)],
        [(1,), (6, 1, 1, 6)],
        [(1, 6), (2,), (6, 1, 3)],
        [(1, 1, 1), (1, 6), (1,)],
    ],
)
def test_mul_apply_on_ragged_terms_matches_both_oracles_bitwise(lengths, signed_zeros):
    # a 1-row term next to a 6-row one: the live rows are a small share of
    # the padded stack, and every padded row a ragged stack leaves out
    # would only have added an exact zero
    rng = np.random.default_rng(83 + len(lengths))
    for dim in (1, 3):
        G = random_multilinear(rng, len(lengths), dim, n_entries=6)
        args = [_ragged_expsum(rng, dim, n, signed_zeros) for n in lengths]
        _assert_mul_apply_matches_both_oracles(G, args)


def test_mul_apply_with_a_zero_argument_is_zero():
    rng = np.random.default_rng(84)
    G = random_multilinear(rng, 3, 2, n_entries=5)
    a = _ragged_expsum(rng, 2, (1, 6, 2))
    for args in ([a, ExpPolySum.zero(2), a], [ExpPolySum.zero(2)] * 3, [a, a, ExpPolySum.zero(2)]):
        got = _assert_mul_apply_matches_both_oracles(G, args)
        assert got.is_zero() and got.rows.shape == (0, 1, 2)


def test_mul_apply_keeps_exact_cancellations_and_signed_zeros_bitwise():
    # (1 + t) e^-t times (1 - t) e^-t through x*y: the t rows cancel to an
    # exact zero inside the 1 - t^2 polynomial; times a lone (1, -0.0)
    # row, the zero components carry the signs the term loop gives them
    G = scalar_power(2)
    p = ExpPolySum.build(1, [(-1.0, [[1.0], [1.0]])])
    q = ExpPolySum.build(1, [(-1.0, [[1.0], [-1.0]]), (-3.0, [[2.0]])])
    got = _assert_mul_apply_matches_both_oracles(G, [p, q])
    rows = got.terms[-2.0]
    assert rows.tolist() == [[1.0], [0.0], [-1.0]]
    assert not np.signbit(rows[1, 0].real)
    H = MultiLinearMap(2, 2, ((0, (0, 1), 1.0), (1, (1, 0), -1.0), (1, (1, 1), 1.0)))
    u = ExpPolySum(2, np.array([-1.0 + 0j]), np.array([[[1.0, -0.0], [-0.0, 2.0]]], dtype=complex))
    v = ExpPolySum(2, np.array([-2.0 + 0j, -1.0 + 0j]), np.array(
        [[[-0.0, 1.0], [0.0, 0.0]], [[3.0, -0.0], [1.0, 1.0]]], dtype=complex
    ))
    assert u._lengths.tolist() == [2] and v._lengths.tolist() == [1, 2]
    _assert_mul_apply_matches_both_oracles(H, [u, v])
    _assert_mul_apply_matches_both_oracles(H, [v, u])
    _assert_mul_apply_matches_both_oracles(MultiLinearMap(1, 2, ((1, (0,), -1.0),)), [u])


def test_mul_apply_peak_memory_stays_below_the_padded_oracle():
    # order-7-shaped arguments of a cubic map: terms x padded rows of 7 x 6,
    # 5 x 4 and 5 x 4 (16,800 padded row tuples), with ragged term lengths
    rng = np.random.default_rng(85)
    G = random_multilinear(rng, 3, 3, n_entries=6)
    args = [
        _ragged_expsum(rng, 3, (1, 2, 6, 3, 1, 4, 2)),
        _ragged_expsum(rng, 3, (1, 4, 2, 1, 3)),
        _ragged_expsum(rng, 3, (2, 1, 4, 1, 1)),
    ]
    assert [a.rows.shape[:2] for a in args] == [(7, 6), (5, 4), (5, 4)]
    G.table  # built once per map, not on the measured call
    padded = peak_bytes(lambda: mul_apply_exp_padded_oracle(G, args))
    got = peak_bytes(lambda: mul_apply_exp(G, args))
    assert got <= padded


def test_mul_apply_trims_near_cancellation_like_the_oracle():
    # (e^-t + c t e^-2t) * (t e^-2t + d e^-t): the two t e^-3t cross terms
    # cancel down to eps of the unit product, next to rows of size c*d.
    G = scalar_power(2)
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


CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def _exp_forcings(case: str):
    """(t_span, exponential forcing terms) of a shipped config or an
    exp-resonant pool problem; certificate, which has no verification
    section, on [0, 20]."""
    if ":" in case:
        workload, index = case.split(":")
        cfg = bench_module("workloads").problem(workload, int(index)).config
    else:
        cfg = json.loads((CONFIGS / f"{case}.json").read_text())
    t_span = cfg.get("verification", {}).get("t_span", [0.0, 20.0])
    return t_span, [term for _, term in build_problem(cfg).forcing]


@pytest.mark.parametrize(
    "case",
    ["resonant", "jordan_resonant", "certificate"] + [f"exp-resonant:{i}" for i in range(32)],
)
def test_emitted_value_matches_eval_bitwise_on_the_integrated_forcings(case):
    # real coefficient rows: every product eval forms rounds once however
    # numpy computes it, so the statements give eval's bits
    rng = np.random.default_rng(list(case.encode()))
    (t0, t1), terms = _exp_forcings(case)
    times = [t0, *np.sort(rng.uniform(t0, t1, 400)).tolist(), t1]
    for term in terms:
        assert isinstance(term, ExpPolySum) and not term.rows.imag.any()
        got = emitted_rows(term, times)
        assert_arrays_bitwise_equal(got, term.eval(np.array(times)))


def _exp_kernel_scale(s: ExpPolySum, times) -> np.ndarray:
    """sum_k |e_k| sum_j |r_kj| |t|^j per time and component: the size of
    the terms a Horner sum rounds."""
    ts = np.abs(np.array(times))
    e = np.abs(np.exp(np.outer(times, s.nus)))
    powers = ts[:, None] ** np.arange(s.rows.shape[1])
    return np.einsum("tk,td,kdi->ti", e, powers, np.abs(s.rows))


def test_emitted_value_agrees_with_eval_and_matches_its_scalar_oracle_on_random_sums():
    # complex rows: numpy's vectorised complex product may fuse its
    # multiply-adds, so eval's rows differ in the last bits.  Measured over
    # these 200 sums with numpy 2.4 on an AVX-512 x86-64 CPU: 1,492 of 4,419
    # values differ, by at most 1.04 eps of the scale above; the bound is
    # 4 eps.
    rng = np.random.default_rng(2108)
    eps = np.finfo(float).eps
    for _ in range(200):
        dim = int(rng.integers(1, 5))
        raw = []
        for _ in range(int(rng.integers(1, 6))):
            nu = complex(rng.uniform(-3.0, -0.2), rng.uniform(-2.0, 2.0))
            raw.append((nu, cvec(rng, int(rng.integers(1, 4)) * dim).reshape(-1, dim)))
        s = ExpPolySum.build(dim, raw)
        times = [0.0, -0.0, -1.5, *rng.uniform(0.0, 12.0, 6).tolist()]
        got = emitted_rows(s, times)
        for t, row in zip(times, got):
            assert_arrays_bitwise_equal(row, np.array(kernel_exp_oracle(s, t)))
        assert (np.abs(got - s.eval(np.array(times))) <= 4 * eps * _exp_kernel_scale(s, times)).all()


def test_emitted_value_matches_its_scalar_oracle_on_signed_zeros():
    # coefficient parts and times drawn with many signed zeros: the statements
    # skip all-zero components and starts Horner at the last row, the
    # oracle runs every step from 0j, and the results must keep one bit
    # pattern, zeros' signs included
    rng = np.random.default_rng(85)
    parts = [0.0, -0.0, 0.0, -0.0, 1.0, -0.5, 0.3]
    times = [-1.5, -0.0, 0.0, 0.7, 2.0]
    for _ in range(300):
        dim = int(rng.integers(1, 4))
        raw = []
        for _ in range(int(rng.integers(1, 4))):
            nu = complex(rng.choice([-1.0, -2.0]), rng.choice([0.0, -0.0, 1.0, -0.5]))
            rows = rng.choice(parts, (int(rng.integers(1, 4)), dim, 2))
            raw.append((nu, rows.view(complex)[..., 0]))
        s = ExpPolySum.build(dim, raw)
        got = emitted_rows(s, times)
        for t, row in zip(times, got):
            assert_arrays_bitwise_equal(row, np.array(kernel_exp_oracle(s, t)))


def test_emit_binds_its_values_under_its_prefix():
    # make_rhs splices several records into one function and one namespace
    s = ExpPolySum.build(2, [(-1.0 + 2.0j, [[1.0, 2j], [0.5, 0.0]]), (-1.0, [[0.25, 1.0]])])
    r = ExpPolySum.build(2, [(-2.0, [[0.0, 1.5], [0.0, -0.5], [0.0, 0.25]])])
    namespace = {}
    both = [emitted(s, "s_", namespace), emitted(r, "r_", namespace)]
    shared = {"cexp", "value", "__builtins__"}
    assert all(k.startswith(("s_", "r_")) for k in set(namespace) - shared)
    for t in (0.0, 1.0, 2.0, 3.5):
        for x, value in zip((s, r), both):
            assert_arrays_bitwise_equal(np.array(value(t)), np.array(kernel_exp_oracle(x, t)))


def test_emitted_value_of_the_zero_sum_is_zero():
    z = ExpPolySum.zero(3)
    times = [0.0, -1.0, 2.5]
    got = emitted_rows(z, times)
    assert got.tolist() == [[0j] * 3] * 3
    assert_arrays_bitwise_equal(got, z.eval(np.array(times)))


def test_an_overflowing_term_gives_evals_rows_without_raising():
    # resonant's e^-t at t = -800: cmath.exp raises OverflowError, np.exp
    # gives inf
    (_, s), = build_problem(json.loads((CONFIGS / "resonant.json").read_text())).forcing
    times = [-800.0, 0.0, 1.0]
    with np.errstate(all="ignore"):
        want = s.eval(np.array(times))
        got = emitted_rows(s, times)
    assert not np.isfinite(got[0]).all()
    assert_arrays_bitwise_equal(got, want)


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
        assert_bitwise_equal(s + other, add_exp_oracle(s, other))
        assert_bitwise_equal(other + s, add_exp_oracle(other, s))
        assert_bitwise_equal(ladder_view(s), ladder_view_oracle(s))


def test_derivative_of_the_ladder_view_matches_the_term_loop():
    # d/dt runs through weight_op(-1) and descent_op on the view, and gives
    # the old term loop's rows, canonicalized as a ladder sum: the same
    # keys, and every coefficient equal to the last bit.  Only the sign of
    # a zero may differ (in 70 of these 800 sums): descent_op weighs row j
    # by the complex exponent j + 0j, where the loop multiplied by the int j.
    rng = np.random.default_rng(94)
    count = 0
    for pair in _exp_cases(rng, 400):
        for s in pair:
            raw = ladder_view_raw_oracle(derivative_exp_oracle(s))
            alphas = np.array([a for a, _ in raw], dtype=complex).reshape(-1, 2)
            xis = np.array([v for _, v in raw], dtype=complex).reshape(-1, s.dim)
            want = LogPowerSum.from_pieces(s.dim, 0, [(alphas, xis)])
            got = _derivative(s)
            assert_arrays_bitwise_equal(got.alphas, want.alphas)
            assert got.xis.shape == want.xis.shape
            assert np.array_equal(got.xis, want.xis)
            count += 1
    assert count == 800


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
    # bit-for-bit contract: self's terms before other's.  The ladder view
    # wraps its rows without canonicalizing them, so its arrays are read
    # directly: term by term with j ascending.
    seen = []
    exp_from_pieces = ExpPolySum.from_pieces.__func__

    def record_exp(cls, dim, pieces):
        pieces = list(pieces)
        seen.append(pieces)
        return exp_from_pieces(cls, dim, pieces)

    monkeypatch.setattr(ExpPolySum, "from_pieces", classmethod(record_exp))
    rng = np.random.default_rng(93)
    for s, other in _exp_cases(rng, 60):
        seen.clear()
        s + other
        nus = np.concatenate([n for n, _ in seen[-1]])
        rows = [term for _, r in seen[-1] for term in r]
        raw = s.items() + other.items()
        assert_arrays_bitwise_equal(nus, np.array([nu for nu, _ in raw], dtype=complex))
        for k, (_, c) in enumerate(raw):
            assert_arrays_bitwise_equal(rows[k][: c.shape[0]], c)
            assert not rows[k][c.shape[0]:].any()
        view = ladder_view(s)
        raw = ladder_view_raw_oracle(s)
        assert_arrays_bitwise_equal(view.alphas, np.array([a for a, _ in raw], dtype=complex).reshape(-1, 2))
        assert_arrays_bitwise_equal(view.xis, np.array([v for _, v in raw], dtype=complex).reshape(-1, s.dim))
