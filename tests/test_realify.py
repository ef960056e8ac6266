"""Real trig forms of conjugation-symmetric sums, and back."""

import math

import numpy as np
import pytest

from odexpand import (
    ExpPolySum,
    LogPowerSum,
    ProblemSpec,
    TrigLadderSum,
    check_conjugation_symmetry,
    expand,
    from_trig_ladder,
    imag_residue,
    to_trig_ladder,
    to_trig_poly,
)
from odexpand.realify import asymmetry_witness
from odexpand.ladder import exp_zero
from odexpand.logpower import descent_op, shifted_inverse, weight_op

from helpers import cvec, random_multilinear, sym_logpower


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
    trig = to_trig_poly(s)
    assert trig.depth == 0
    assert trig.items() == [(((0.0, 0.0), ((0, 1.0, "cos"),)), pytest.approx([1.0]))]


def test_sine_pair():
    s = ExpPolySum.build(1, [(1j, [[-0.5j]]), (-1j, [[0.5j]])])
    trig = to_trig_poly(s)
    assert trig.items() == [(((0.0, 0.0), ((0, 1.0, "sin"),)), pytest.approx([1.0]))]


def test_degree_one_pair():
    # t * (cos 2t + sin 2t) written as a conjugate pair
    xi = (1.0 - 1.0j) / 2.0
    s = ExpPolySum.build(1, [(2j, [[0.0], [xi]]), (-2j, [[0.0], [xi.conjugate()]])])
    trig = to_trig_poly(s)
    assert trig.items() == [
        (((0.0, 1.0), ((0, 2.0, "cos"),)), pytest.approx([1.0])),
        (((0.0, 1.0), ((0, 2.0, "sin"),)), pytest.approx([1.0])),
    ]
    t = 1.7
    np.testing.assert_allclose(trig.eval(t), [t * (math.cos(2 * t) + math.sin(2 * t))])


def test_trig_poly_matches_complex_eval():
    rng = np.random.default_rng(11)
    for _ in range(15):
        s = sym_expsum(rng, int(rng.integers(1, 4)))
        trig = to_trig_poly(s)
        assert trig.depth == 0
        scale = max(s.sup_norm(), 1.0)
        assert imag_residue(s, rng.uniform(0.0, 8.0, size=20)) < 1e-10 * scale
        # the real form lives on the depth-0 ladder, which starts above t = 1
        for t in rng.uniform(1.01, 8.0, size=20):
            np.testing.assert_allclose(trig.eval(t), s.eval(t).real, atol=1e-10 * scale)


def test_trig_poly_converts_decaying_pairs_and_rejects_asymmetric_input():
    s = ExpPolySum.build(1, [(-1.0 + 1j, [[1.0], [0.5j]]), (-1.0 - 1j, [[1.0], [-0.5j]])])
    trig = to_trig_poly(s)
    assert trig.items() == [
        (((-1.0, 0.0), ((0, 1.0, "cos"),)), pytest.approx([2.0])),
        (((-1.0, 1.0), ((0, 1.0, "sin"),)), pytest.approx([-1.0])),
    ]
    for t in (1.5, 4.0, 12.0):
        np.testing.assert_allclose(trig.eval(t), s.eval(t).real, rtol=1e-13)
    with pytest.raises(ValueError, match="not conjugation-symmetric"):
        to_trig_poly(ExpPolySum.build(1, [(1j, [[1.0]])]))


def test_trig_poly_build_canonicalizes():
    # the depth-0 trig form: negative frequency folds onto the positive axis,
    # sin soaking the sign, and merges with its positive-frequency twin
    p = TrigLadderSum.build(
        1,
        0,
        [
            ((0.0, 0.0), ((0, -2.0, "sin"),), [1.0]),
            ((0.0, 0.0), ((0, 2.0, "sin"),), [3.0]),
        ],
    )
    assert p.items() == [(((0.0, 0.0), ((0, 2.0, "sin"),)), pytest.approx([2.0]))]
    # sin(0) vanishes
    assert TrigLadderSum.build(1, 0, [((0.0, 0.0), ((0, 0.0, "sin"),), [1.0])]).is_zero()
    with pytest.raises(ValueError, match="phase must be cos or sin"):
        TrigLadderSum.build(1, 0, [((0.0, 0.0), ((0, 1.0, "tan"),), [1.0])])
    # a depth-0 sum has one oscillating component, the one in t itself
    with pytest.raises(ValueError, match="trig factor index exceeds depth"):
        TrigLadderSum.build(1, 0, [((0.0, 0.0), ((1, 1.0, "cos"),), [1.0])])


def test_trig_poly_records_round_trip():
    rng = np.random.default_rng(3)
    p = to_trig_poly(sym_expsum(rng, 2))
    again = TrigLadderSum.from_records(2, 0, p.to_records())
    assert again.items() == [
        (k, pytest.approx(v)) for k, v in p.items()
    ]


# ---------------------------------------------------------------------------
# ladder sums over the trig basis


def test_oscillation_in_the_deepest_component_lifts_depth():
    p = LogPowerSum.build(1, 1, [((0, 0, 1j), [1.0]), ((0, 0, -1j), [1.0])])
    trig = to_trig_ladder(p)
    assert trig.depth == 2
    assert trig.items() == [
        (((0.0, 0.0, 0.0, 0.0), ((2, 1.0, "cos"),)), pytest.approx([2.0]))
    ]


def test_real_input_converts_identically():
    p = LogPowerSum.build(2, 1, [((0.0, -1.0, 2.0), [1.0, -0.5])])
    trig = to_trig_ladder(p)
    assert trig.depth == 1
    assert trig.items() == [
        (((0.0, -1.0, 2.0), ()), pytest.approx([1.0, -0.5]))
    ]
    t = 40.0
    np.testing.assert_allclose(trig.eval(t), p.eval(t).real, rtol=1e-13)


def test_oscillation_in_time_itself_keeps_depth():
    # exp(2it)/t style pair: the trig factor lands on component 0
    p = LogPowerSum.build(1, 0, [((2j, -1.0), [0.5]), ((-2j, -1.0), [0.5])])
    trig = to_trig_ladder(p)
    assert trig.depth == 0
    assert trig.items() == [
        (((0.0, -1.0), ((0, 2.0, "cos"),)), pytest.approx([1.0]))
    ]


def test_mixed_oscillation_keeps_depth_when_deepest_is_real():
    alpha = (2j, -1.0, 1.0, -1.0 / 3.0)
    p = LogPowerSum.build(1, 2, [(alpha, [0.5]), (tuple(a.conjugate() for a in map(complex, alpha)), [0.5])])
    trig = to_trig_ladder(p)
    assert trig.depth == 2
    keys = [k for k, _ in trig.items()]
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
    trig = to_trig_ladder(p)
    assert trig.depth == 2
    expected = {
        ((0, 1.0, "cos"), (2, 1.0, "cos")): 1.0,
        ((0, 1.0, "cos"), (2, 1.0, "sin")): -0.5,
        ((0, 1.0, "sin"), (2, 1.0, "cos")): -0.5,
        ((0, 1.0, "sin"), (2, 1.0, "sin")): -1.0,
    }
    got = {fac: v[0] for (a, fac), v in trig.items()}
    assert set(got) == set(expected)
    for fac, val in expected.items():
        assert got[fac] == pytest.approx(val)
    t = 3.1 * exp_zero(3)
    np.testing.assert_allclose(trig.eval(t), p.eval(t).real, rtol=1e-12)


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
        trig = to_trig_ladder(p)
        gate = exp_zero(trig.depth + 1)
        ts = np.geomspace(1.3 * gate, 40.0 * gate, 20)
        scale = max(p.sup_norm(), 1.0)
        assert imag_residue(p, ts) < 1e-9 * scale
        for t in ts:
            a = trig.eval(t)
            b = p.eval(t).real
            assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.max(np.abs(b)))


def test_trig_ladder_rejects_asymmetric_input():
    p = LogPowerSum.build(1, 0, [((1j, -1.0), [1.0])])
    with pytest.raises(ValueError, match="not conjugation-symmetric"):
        to_trig_ladder(p)


def test_trig_ladder_build_validation():
    ok_alpha = (0.0, -1.0)
    with pytest.raises(ValueError, match="trig factor index exceeds depth"):
        TrigLadderSum.build(1, 0, [(ok_alpha, ((1, 1.0, "cos"),), [1.0])])
    with pytest.raises(ValueError, match="trig factor index must be >= 0"):
        TrigLadderSum.build(1, 0, [(ok_alpha, ((-1, 1.0, "cos"),), [1.0])])
    with pytest.raises(ValueError, match="at most one trig factor per ladder component"):
        TrigLadderSum.build(
            1, 0, [(ok_alpha, ((0, 1.0, "cos"), (0, 2.0, "sin")), [1.0])]
        )
    with pytest.raises(ValueError, match="phase must be cos or sin"):
        TrigLadderSum.build(1, 0, [(ok_alpha, ((0, 1.0, "tanh"),), [1.0])])
    with pytest.raises(ValueError, match="length 3 != depth\\+2 = 2"):
        TrigLadderSum.build(1, 0, [((0.0, -1.0, 0.0), (), [1.0])])
    with pytest.raises(ValueError, match="coefficient length mismatch"):
        TrigLadderSum.build(2, 0, [(ok_alpha, (), [1.0])])


def test_trig_ladder_build_canonicalizes_factors():
    # sin(0 * L) kills the term, cos(0 * L) is dropped, negative frequency flips sin
    assert TrigLadderSum.build(1, 0, [((0.0, -1.0), ((0, 0.0, "sin"),), [1.0])]).is_zero()
    p = TrigLadderSum.build(1, 0, [((0.0, -1.0), ((0, 0.0, "cos"),), [1.0])])
    assert p.items() == [(((0.0, -1.0), ()), pytest.approx([1.0]))]
    q = TrigLadderSum.build(1, 0, [((0.0, -1.0), ((0, -2.0, "sin"),), [1.0])])
    assert q.items() == [(((0.0, -1.0), ((0, 2.0, "sin"),)), pytest.approx([-1.0]))]
    # the folded term merges with its positive-frequency twin
    r = TrigLadderSum.build(
        1,
        0,
        [
            ((0.0, -1.0), ((0, -2.0, "sin"),), [1.0]),
            ((0.0, -1.0), ((0, 2.0, "sin"),), [3.0]),
        ],
    )
    assert r.items() == [(((0.0, -1.0), ((0, 2.0, "sin"),)), pytest.approx([2.0]))]


def test_from_trig_ladder_worked_cases():
    q = TrigLadderSum.build(1, 0, [((0.0, 0.0), ((0, 2.0, "cos"),), [1.0])])
    p = from_trig_ladder(q)
    assert p.depth == 0
    got = {a: v[0] for a, v in p.items()}
    assert got[(-2j, 0.0)] == pytest.approx(0.5)
    assert got[(2j, 0.0)] == pytest.approx(0.5)

    q = TrigLadderSum.build(1, 2, [((0.0, 0.0, 0.0, 0.0), ((2, 3.0, "sin"),), [1.0])])
    p = from_trig_ladder(q)
    got = {a: v[0] for a, v in p.items()}
    assert got[(0.0, 0.0, 3j, 0.0)] == pytest.approx(-0.5j)
    assert got[(0.0, 0.0, -3j, 0.0)] == pytest.approx(0.5j)


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
    return TrigLadderSum.build(dim, depth, raw)


def test_trig_ladder_round_trip():
    rng = np.random.default_rng(23)
    for _ in range(20):
        depth = int(rng.integers(0, 3))
        q = random_trig_ladder(rng, int(rng.integers(1, 3)), depth)
        p = from_trig_ladder(q)
        assert check_conjugation_symmetry(p)
        back = to_trig_ladder(p)
        # trig factors sit on components <= depth, so no lift can occur
        assert back.depth == depth
        gate = exp_zero(depth + 1)
        for t in np.geomspace(1.3 * gate, 30.0 * gate, 12):
            a = q.eval(t)
            b = back.eval(t)
            assert np.max(np.abs(a - b)) < 1e-9 * max(1.0, np.max(np.abs(a)))


def test_trig_ladder_records_round_trip():
    rng = np.random.default_rng(5)
    q = random_trig_ladder(rng, 2, 1)
    again = TrigLadderSum.from_records(2, 1, q.to_records())
    assert sorted(again.terms) == sorted(q.terms)
    for k in q.terms:
        np.testing.assert_allclose(again.terms[k], q.terms[k])


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
        assert check_conjugation_symmetry(weight_op(-1, q))
        assert check_conjugation_symmetry(descent_op(q))

    A = np.array([[2.0, 0.7], [-0.3, 1.5]])
    for _ in range(20):
        q = random_symmetric_im_shift(rng, 2, 0)
        assert check_conjugation_symmetry(shifted_inverse(A, q))


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
        assert check_conjugation_symmetry(term, tol=1e-10)
        if term.is_zero():
            continue
        trig = to_trig_ladder(term, tol=1e-10)
        assert trig.depth == 0
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
        trig = to_trig_ladder(p)
        want = max(float(np.linalg.norm(v)) for v in trig.terms.values())
        assert trig.sup_norm() == want
    assert LogPowerSum.zero(2, 1).sup_norm() == 0.0
    assert to_trig_ladder(LogPowerSum.zero(2, 0)).sup_norm() == 0.0
