"""Real trig forms of conjugation-symmetric sums, and back."""

import math
from pathlib import Path

import numpy as np
import pytest

from odexpand import (
    ExpPolySum,
    LogPowerSum,
    ProblemSpec,
    expand,
    from_trig_ladder,
    imag_residue,
    to_trig_ladder,
    to_trig_poly,
)
from odexpand.cli import _realify_grid, build_problem, load_config
from odexpand.realify import _ladder_view, _real_rows, asymmetry_witness
from odexpand.ladder import exp_zero
from odexpand.logpower import descent_op, shifted_inverse, weight_op

from helpers import (
    assert_arrays_bitwise_equal,
    assert_trig_bitwise_equal,
    bench_module,
    cvec,
    random_alpha,
    random_multilinear,
    sym_logpower,
    to_trig_ladder_oracle,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def depth_of(rows) -> int:
    """Depth of a real form: every exponent vector has length depth + 2."""
    (depth,) = {len(alpha) - 2 for (alpha, _), _ in rows}
    return depth


def real_value(rows, dim: int, t: float) -> np.ndarray:
    """A real form's value at t, through the LogPowerSum it stands for."""
    raw = [(alpha, factors, vec) for (alpha, factors), vec in rows]
    value = from_trig_ladder(dim, depth_of(rows), raw).eval(t)
    assert np.max(np.abs(value.imag)) <= 1e-12 * max(1.0, np.max(np.abs(value)))
    return value.real


def sym_expsum(rng, dim, n_pairs=2, max_degree=2):
    raw = []
    for _ in range(n_pairs):
        nu = complex(-rng.uniform(0.0, 1.5), rng.uniform(0.3, 3.0))
        rows = cvec(rng, dim * (max_degree + 1)).reshape(max_degree + 1, dim)
        raw.append((nu, rows))
        raw.append((nu.conjugate(), rows.conj()))
    return ExpPolySum.build(dim, raw)


# ---------------------------------------------------------------------------
# exp sums, through their depth-0 ladder view


def test_cosine_pair():
    s = ExpPolySum.build(1, [(1j, [[0.5]]), (-1j, [[0.5]])])
    rows = to_trig_poly(s)
    assert depth_of(rows) == 0
    assert rows == [(((0.0, 0.0), ((0, 1.0, "cos"),)), pytest.approx([1.0]))]


def test_sine_pair():
    s = ExpPolySum.build(1, [(1j, [[-0.5j]]), (-1j, [[0.5j]])])
    rows = to_trig_poly(s)
    assert rows == [(((0.0, 0.0), ((0, 1.0, "sin"),)), pytest.approx([1.0]))]


def test_degree_one_pair():
    # t * (cos 2t + sin 2t) written as a conjugate pair
    xi = (1.0 - 1.0j) / 2.0
    s = ExpPolySum.build(1, [(2j, [[0.0], [xi]]), (-2j, [[0.0], [xi.conjugate()]])])
    rows = to_trig_poly(s)
    assert rows == [
        (((0.0, 1.0), ((0, 2.0, "cos"),)), pytest.approx([1.0])),
        (((0.0, 1.0), ((0, 2.0, "sin"),)), pytest.approx([1.0])),
    ]
    t = 1.7
    np.testing.assert_allclose(
        real_value(rows, 1, t), [t * (math.cos(2 * t) + math.sin(2 * t))]
    )


def test_trig_poly_matches_complex_eval():
    rng = np.random.default_rng(11)
    for _ in range(15):
        s = sym_expsum(rng, int(rng.integers(1, 4)))
        rows = to_trig_poly(s)
        assert depth_of(rows) == 0
        scale = max(s.sup_norm(), 1.0)
        assert imag_residue(s, rng.uniform(0.0, 8.0, size=20)) < 1e-10 * scale
        # the real form lives on the depth-0 ladder, which starts above t = 1
        for t in rng.uniform(1.01, 8.0, size=20):
            np.testing.assert_allclose(
                real_value(rows, s.dim, t), s.eval(t).real, atol=1e-10 * scale
            )


def test_trig_poly_converts_decaying_pairs_and_rejects_asymmetric_input():
    s = ExpPolySum.build(1, [(-1.0 + 1j, [[1.0], [0.5j]]), (-1.0 - 1j, [[1.0], [-0.5j]])])
    rows = to_trig_poly(s)
    assert rows == [
        (((-1.0, 0.0), ((0, 1.0, "cos"),)), pytest.approx([2.0])),
        (((-1.0, 1.0), ((0, 1.0, "sin"),)), pytest.approx([-1.0])),
    ]
    for t in (1.5, 4.0, 12.0):
        np.testing.assert_allclose(real_value(rows, 1, t), s.eval(t).real, rtol=1e-13)
    with pytest.raises(ValueError, match="not conjugation-symmetric"):
        to_trig_poly(ExpPolySum.build(1, [(1j, [[1.0]])]))


def test_trig_poly_build_canonicalizes():
    # the depth-0 trig form: negative frequency folds onto the positive axis,
    # sin soaking the sign, and merges with its positive-frequency twin
    rows = _real_rows(
        1,
        0,
        [
            ((0.0, 0.0), ((0, -2.0, "sin"),), [1.0]),
            ((0.0, 0.0), ((0, 2.0, "sin"),), [3.0]),
        ],
    )
    assert rows == [(((0.0, 0.0), ((0, 2.0, "sin"),)), pytest.approx([2.0]))]
    # sin(0) vanishes
    assert _real_rows(1, 0, [((0.0, 0.0), ((0, 0.0, "sin"),), [1.0])]) == []
    with pytest.raises(ValueError, match="phase must be cos or sin"):
        _real_rows(1, 0, [((0.0, 0.0), ((0, 1.0, "tan"),), [1.0])])
    # a depth-0 sum has one oscillating component, the one in t itself
    with pytest.raises(ValueError, match="trig factor index exceeds depth"):
        _real_rows(1, 0, [((0.0, 0.0), ((1, 1.0, "cos"),), [1.0])])


# ---------------------------------------------------------------------------
# ladder sums over the trig basis


def test_oscillation_in_the_deepest_component_lifts_depth():
    p = LogPowerSum.build(1, 1, [((0, 0, 1j), [1.0]), ((0, 0, -1j), [1.0])])
    rows = to_trig_ladder(p)
    assert depth_of(rows) == 2
    assert rows == [
        (((0.0, 0.0, 0.0, 0.0), ((2, 1.0, "cos"),)), pytest.approx([2.0]))
    ]


def test_real_input_converts_identically():
    p = LogPowerSum.build(2, 1, [((0.0, -1.0, 2.0), [1.0, -0.5])])
    rows = to_trig_ladder(p)
    assert depth_of(rows) == 1
    assert rows == [
        (((0.0, -1.0, 2.0), ()), pytest.approx([1.0, -0.5]))
    ]
    t = 40.0
    np.testing.assert_allclose(real_value(rows, 2, t), p.eval(t).real, rtol=1e-13)


def test_oscillation_in_time_itself_keeps_depth():
    # exp(2it)/t style pair: the trig factor lands on component 0
    p = LogPowerSum.build(1, 0, [((2j, -1.0), [0.5]), ((-2j, -1.0), [0.5])])
    rows = to_trig_ladder(p)
    assert depth_of(rows) == 0
    assert rows == [
        (((0.0, -1.0), ((0, 2.0, "cos"),)), pytest.approx([1.0]))
    ]


def test_mixed_oscillation_keeps_depth_when_deepest_is_real():
    alpha = (2j, -1.0, 1.0, -1.0 / 3.0)
    p = LogPowerSum.build(1, 2, [(alpha, [0.5]), (tuple(a.conjugate() for a in map(complex, alpha)), [0.5])])
    rows = to_trig_ladder(p)
    assert depth_of(rows) == 2
    keys = [k for k, _ in rows]
    assert len(keys) == 1
    a, factors = keys[0]
    assert factors == ((0, 2.0, "cos"),)
    np.testing.assert_allclose(a, (0.0, -1.0, 1.0, -1.0 / 3.0), atol=1e-11)


def test_quarter_phase_sign_table():
    # oscillation on two components: sin count fixes which of +-2x, +-2y shows up
    xi = np.array([0.5 + 0.25j])
    p = LogPowerSum.build(
        1, 1, [((1j, -1.0, 1j), xi), ((-1j, -1.0, -1j), xi.conj())]
    )
    rows = to_trig_ladder(p)
    assert depth_of(rows) == 2
    expected = {
        ((0, 1.0, "cos"), (2, 1.0, "cos")): 1.0,
        ((0, 1.0, "cos"), (2, 1.0, "sin")): -0.5,
        ((0, 1.0, "sin"), (2, 1.0, "cos")): -0.5,
        ((0, 1.0, "sin"), (2, 1.0, "sin")): -1.0,
    }
    got = {fac: v[0] for (a, fac), v in rows}
    assert set(got) == set(expected)
    for fac, val in expected.items():
        assert got[fac] == pytest.approx(val)
    t = 3.1 * exp_zero(3)
    np.testing.assert_allclose(real_value(rows, 1, t), p.eval(t).real, rtol=1e-12)


def sym_decaying_logpower(rng, dim, depth):
    # exponent real parts kept nonpositive so eval stays in float range
    raw = []
    for _ in range(2):
        alpha = [
            complex(rng.uniform(-1.2, 0.0), rng.uniform(-2, 2))
            for _ in range(depth + 2)
        ]
        v = cvec(rng, dim)
        raw.append((tuple(alpha), v))
        raw.append((tuple(a.conjugate() for a in alpha), v.conj()))
    return LogPowerSum.build(dim, depth, raw)


def test_trig_ladder_matches_complex_eval():
    rng = np.random.default_rng(7)
    for _ in range(12):
        depth = int(rng.integers(0, 3))
        p = sym_decaying_logpower(rng, int(rng.integers(1, 3)), depth)
        rows = to_trig_ladder(p)
        gate = exp_zero(depth_of(rows) + 1)
        ts = np.geomspace(1.3 * gate, 40.0 * gate, 20)
        scale = max(p.sup_norm(), 1.0)
        assert imag_residue(p, ts) < 1e-9 * scale
        for t in ts:
            a = real_value(rows, p.dim, t)
            b = p.eval(t).real
            assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.max(np.abs(b)))


def test_imag_residue_rejects_a_sum_that_is_not_finite():
    # e^{800 t} overflows at t = 10 and 20, and inf - inf leaves NaN in
    # every component; a skipped NaN would report a residue of 0
    p = LogPowerSum.build(2, 0, [((800.0, 0.0), [1.0, 1j]), ((799.0, 0.0), [-1.0, 0.0])])
    with np.errstate(over="ignore", invalid="ignore"):
        assert np.isnan(p.eval(np.array([10.0, 20.0]))).all()
        with pytest.raises(ValueError, match="not finite on the sample grid"):
            imag_residue(p, [10.0, 20.0])


def test_trig_ladder_rejects_asymmetric_input():
    p = LogPowerSum.build(1, 0, [((1j, -1.0), [1.0])])
    with pytest.raises(ValueError, match="not conjugation-symmetric"):
        to_trig_ladder(p)


@pytest.mark.parametrize("build", [_real_rows, from_trig_ladder])
def test_real_rows_validation(build):
    # from_trig_ladder canonicalizes its rows first, so it refuses the same
    ok_alpha = (0.0, -1.0)
    with pytest.raises(ValueError, match="trig factor index exceeds depth"):
        build(1, 0, [(ok_alpha, ((1, 1.0, "cos"),), [1.0])])
    with pytest.raises(ValueError, match="trig factor index must be >= 0"):
        build(1, 0, [(ok_alpha, ((-1, 1.0, "cos"),), [1.0])])
    with pytest.raises(ValueError, match="at most one trig factor per ladder component"):
        build(1, 0, [(ok_alpha, ((0, 1.0, "cos"), (0, 2.0, "sin")), [1.0])])
    with pytest.raises(ValueError, match="phase must be cos or sin"):
        build(1, 0, [(ok_alpha, ((0, 1.0, "tanh"),), [1.0])])
    with pytest.raises(ValueError, match="length 3 != depth\\+2 = 2"):
        build(1, 0, [((0.0, -1.0, 0.0), (), [1.0])])
    with pytest.raises(ValueError, match="coefficient length mismatch"):
        build(2, 0, [(ok_alpha, (), [1.0])])
    with pytest.raises(ValueError, match="depth must be >= -1"):
        build(1, -2, [])


def test_real_rows_canonicalize_factors():
    # sin(0 * L) kills the term, cos(0 * L) is dropped, negative frequency flips sin
    assert _real_rows(1, 0, [((0.0, -1.0), ((0, 0.0, "sin"),), [1.0])]) == []
    p = _real_rows(1, 0, [((0.0, -1.0), ((0, 0.0, "cos"),), [1.0])])
    assert p == [(((0.0, -1.0), ()), pytest.approx([1.0]))]
    q = _real_rows(1, 0, [((0.0, -1.0), ((0, -2.0, "sin"),), [1.0])])
    assert q == [(((0.0, -1.0), ((0, 2.0, "sin"),)), pytest.approx([-1.0]))]
    # the folded term merges with its positive-frequency twin
    r = _real_rows(
        1,
        0,
        [
            ((0.0, -1.0), ((0, -2.0, "sin"),), [1.0]),
            ((0.0, -1.0), ((0, 2.0, "sin"),), [3.0]),
        ],
    )
    assert r == [(((0.0, -1.0), ((0, 2.0, "sin"),)), pytest.approx([2.0]))]
    # so does the LogPowerSum built from them
    assert from_trig_ladder(
        1, 0, [((0.0, -1.0), ((0, 0.0, "sin"),), [1.0])]
    ).is_zero()
    flipped = from_trig_ladder(1, 0, [((0.0, -1.0), ((0, -2.0, "sin"),), [1.0])])
    twin = from_trig_ladder(1, 0, [((0.0, -1.0), ((0, 2.0, "sin"),), [-1.0])])
    assert_arrays_bitwise_equal(flipped.alphas, twin.alphas)
    assert_arrays_bitwise_equal(flipped.xis, twin.xis)


def test_from_trig_ladder_worked_cases():
    # cos(2t) = (e^{2it} + e^{-2it}) / 2
    p = from_trig_ladder(1, 0, [((0.0, 0.0), ((0, 2.0, "cos"),), [1.0])])
    assert p.depth == 0
    got = {a: v[0] for a, v in p.items()}
    assert got == {(-2j, 0.0): pytest.approx(0.5), (2j, 0.0): pytest.approx(0.5)}

    # sin(3 ln_2 t) = (z_1^{3i} - z_1^{-3i}) / (2i), z_1 = ln t
    p = from_trig_ladder(1, 2, [((0.0, 0.0, 0.0, 0.0), ((2, 3.0, "sin"),), [1.0])])
    got = {a: v[0] for a, v in p.items()}
    assert got == {
        (0.0, 0.0, 3j, 0.0): pytest.approx(-0.5j),
        (0.0, 0.0, -3j, 0.0): pytest.approx(0.5j),
    }

    # 2 t^-1 cos(2t) sin(3 ln t): the factors multiply out into four terms
    p = from_trig_ladder(
        1, 1, [((0.0, -1.0, 0.0), ((0, 2.0, "cos"), (1, 3.0, "sin")), [2.0])]
    )
    got = {a: v[0] for a, v in p.items()}
    assert got == {
        (2j, -1.0 + 3j, 0.0): pytest.approx(-0.5j),
        (2j, -1.0 - 3j, 0.0): pytest.approx(0.5j),
        (-2j, -1.0 + 3j, 0.0): pytest.approx(-0.5j),
        (-2j, -1.0 - 3j, 0.0): pytest.approx(0.5j),
    }
    t = 7.5
    want = 2.0 / t * math.cos(2.0 * t) * math.sin(3.0 * math.log(t))
    np.testing.assert_allclose(p.eval(t), [want], rtol=1e-13, atol=1e-15)


def random_trig_ladder(rng, dim, depth):
    raw = []
    for _ in range(3):
        alpha = [float(rng.uniform(-1.2, 0.2))] + [
            float(rng.uniform(-1.5, 1.5)) for _ in range(depth + 1)
        ]
        factors = []
        for j in range(depth + 1):
            if rng.random() < 0.5:
                phase = "cos" if rng.random() < 0.5 else "sin"
                factors.append((j, float(rng.uniform(0.5, 3.0)), phase))
        raw.append((alpha, tuple(factors), rng.standard_normal(dim)))
    return raw


def test_trig_ladder_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        depth = int(rng.integers(0, 3))
        dim = int(rng.integers(1, 3))
        raw = random_trig_ladder(rng, dim, depth)
        p = from_trig_ladder(dim, depth, raw)
        assert asymmetry_witness(p) is None
        back = to_trig_ladder(p)
        # trig factors sit on components <= depth, so no lift can occur,
        # and the rows come back as they went in
        assert depth_of(back) == depth
        want = _real_rows(dim, depth, raw)
        assert [k for k, _ in back] == [k for k, _ in want]
        for (_, a), (_, b) in zip(back, want):
            np.testing.assert_allclose(a, b, rtol=1e-12, atol=1e-14)


# ---------------------------------------------------------------------------
# symmetry bookkeeping


def test_asymmetry_witness_flags_the_broken_term():
    s = ExpPolySum.build(1, [(1j, [[1.0]]), (-1j, [[1.0]])])
    assert asymmetry_witness(s) is None
    broken = ExpPolySum.build(1, [(1j, [[1.0]]), (-1j, [[1.0 + 0.5j]])])
    assert asymmetry_witness(broken) in ((1j, 0.0), (-1j, 0.0))
    # exponential witnesses are (nu, j) keys of the depth-0 ladder view
    longer = ExpPolySum.build(1, [(1j, [[1.0], [2.0]]), (-1j, [[1.0]])])
    assert asymmetry_witness(longer) == (1j, 1.0)

    p = LogPowerSum.build(1, 0, [((1j, -1.0), [1.0]), ((-1j, -1.0), [1.0])])
    assert asymmetry_witness(p) is None
    lone = LogPowerSum.build(1, 0, [((1j, -1.0), [1.0])])
    assert asymmetry_witness(lone) == (1j, -1.0)

    with pytest.raises(TypeError, match="unsupported operand type int"):
        asymmetry_witness(3)


def test_symbolic_operators_preserve_symmetry():
    rng = np.random.default_rng(29)
    for _ in range(50):
        dim = int(rng.integers(1, 4))
        depth = int(rng.integers(0, 3))
        q = sym_logpower(rng, dim, depth)
        assert asymmetry_witness(weight_op(-1, q)) is None
        assert asymmetry_witness(descent_op(q)) is None

    A = np.array([[2.0, 0.7], [-0.3, 1.5]])
    for _ in range(20):
        q = random_symmetric_im_shift(rng, 2, 0)
        assert asymmetry_witness(shifted_inverse(A, q)) is None


def random_symmetric_im_shift(rng, dim, depth):
    # symmetric sums whose a(-1) exponents stay on the imaginary axis
    raw = []
    for _ in range(2):
        alpha = [1j * rng.uniform(-2, 2)] + [
            complex(rng.uniform(-1.5, 0.0), rng.uniform(-1, 1))
            for _ in range(depth + 1)
        ]
        v = cvec(rng, dim)
        raw.append((tuple(alpha), v))
        raw.append((tuple(a.conjugate() for a in alpha), v.conj()))
    return LogPowerSum.build(dim, depth, raw)


def test_real_problem_produces_symmetric_expansion():
    rng = np.random.default_rng(41)
    A = np.array([[2.0, 1.0], [0.0, 3.0]])
    G = random_multilinear(rng, 2, 2, real=True)
    v = np.array([0.3 + 0.4j, -0.1 + 0.2j])
    f = LogPowerSum.build(
        2, 0, [((2j, -1.0), v), ((-2j, -1.0), v.conj())]
    )
    spec = ProblemSpec(A, (G,), ((1.0, f),), "power", order=2)
    exp_ = expand(spec)
    gate = exp_zero(1)
    ts = np.geomspace(1.5 * gate, 60.0 * gate, 15)
    for k in range(1, exp_.order_count() + 1):
        term = exp_.term(k)
        assert asymmetry_witness(term, tol=1e-10) is None
        if term.is_zero():
            continue
        rows = to_trig_ladder(term, tol=1e-10)
        assert depth_of(rows) == 0
        assert imag_residue(term, ts) < 1e-10 * max(term.sup_norm(), 1.0)


def test_sup_norm_is_the_largest_per_term_norm_bitwise():
    # the batched row norms feed TRIM_REL and tolerance scales, so they
    # must equal np.linalg.norm of each coefficient vector exactly
    rng = np.random.default_rng(43)
    for _ in range(60):
        dim = int(rng.integers(1, 6))
        p = sym_logpower(rng, dim, int(rng.integers(0, 3)), n_terms=int(rng.integers(1, 5)))
        p = p.scale(float(np.exp(rng.uniform(-30.0, 30.0))))
        want = max(float(np.linalg.norm(v)) for v in p.terms.values())
        assert p.sup_norm() == want
    assert LogPowerSum.zero(2, 1).sup_norm() == 0.0


# ---------------------------------------------------------------------------
# the pair rule and the rotation against the sort-key loop they replaced


def _realify_specs():
    # the benchmark's power-expand (order 10) and exp-resonant (order 7)
    # pools at their own orders, and the shipped configs
    workloads = bench_module("workloads")
    for name in ("power-expand", "exp-resonant"):
        for index in range(workloads.POOL_SIZE):
            yield build_problem(workloads.problem(name, index).config)
    for path in sorted(CONFIGS.glob("*.json")):
        yield build_problem(load_config(path))


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_real_forms_of_the_pools_match_the_sort_key_loop_bitwise():
    check = bench_module("check")
    converted = 0
    for spec in _realify_specs():
        expansion = expand(spec)
        grid = _realify_grid(expansion, spec)
        for order in expansion.orders:
            term = order.term
            if term.is_zero():
                continue
            assert imag_residue(term, grid) <= check.REALIFY_RESIDUE
            p = _ladder_view(term) if isinstance(term, ExpPolySum) else term
            assert_trig_bitwise_equal(to_trig_ladder(p), to_trig_ladder_oracle(p))
            converted += 1
    assert converted > 500


def sym_mixed_logpower(rng, dim, depth, n_terms):
    # each component oscillates or not at random (a flat one gets +0.0 or
    # -0.0), so real terms and terms whose first oscillation sits anywhere
    # in the exponent vector all occur
    raw = []
    for _ in range(n_terms):
        alpha = [
            a if rng.random() < 0.5 else complex(a.real, rng.choice([0.0, -0.0]))
            for a in random_alpha(rng, depth)
        ]
        raw.append((tuple(alpha), cvec(rng, dim)))
    q = LogPowerSum.build(dim, depth, raw)
    return q + q.conjugate()


def test_real_forms_of_random_symmetric_sums_match_the_sort_key_loop_bitwise():
    # up to four oscillating components per term, where the pools have one
    rng = np.random.default_rng(47)
    for make in (sym_logpower, sym_mixed_logpower):
        for _ in range(60):
            depth = int(rng.integers(0, 3))
            p = make(rng, int(rng.integers(1, 4)), depth, int(rng.integers(1, 5)))
            assert_trig_bitwise_equal(to_trig_ladder(p), to_trig_ladder_oracle(p))
