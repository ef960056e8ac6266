"""Exponent ladders, problem validation, and the recursive term construction."""

import dataclasses
import gzip
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

from odexpand import (
    ExpPolySum,
    ExponentLadder,
    LogPowerSum,
    MultiLinearMap,
    ProblemSpec,
    ValidationError,
    eval_partial_sum,
    expand,
    resolvent_defect,
    symbolic_defect,
)
from odexpand import engine
from odexpand.cli import build_problem, expansion_records, load_config
from odexpand.engine import _decompose_values

from helpers import (
    assert_bitwise_equal,
    batch_oracle,
    bench_module,
    coeff_distance_exp,
    coeff_distance_logpower,
    interaction_sum_oracle,
    jordan_plant,
    mode_degree,
    mul_apply_exp_padded_oracle,
    peak_bytes,
    rate_rhs_per_multiset_oracle,
    rates_upto,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
REFERENCE = Path(__file__).resolve().parent.parent / "bench" / "reference"
# Peak bytes of expand(power-expand-000, 10) under tracemalloc, about 27%
# above the measured peak; see test_power_expand_peak_memory_is_bounded.
PEAK_BOUND = 1_300_000

SQ = MultiLinearMap.scalar_power(2)


def exp_forcing(rate: float, rows) -> tuple[float, ExpPolySum]:
    return (rate, ExpPolySum.build(1, [(-rate, rows)]))


def riccati_spec(order: int = 2) -> ProblemSpec:
    # y' = -y + y^2 + 1/t
    f = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0])])
    return ProblemSpec(
        matrix=np.array([[1.0]]), maps=(SQ,), forcing=((1.0, f),),
        mode="power", order=order,
    )


# ---------------------------------------------------------------------------
# ladders


def test_unit_base_realizes_integers():
    lad = ExponentLadder((1.0,))
    assert lad.take(6) == (1.0, 2.0, 3.0, 4.0, 5.0, 6.0)


def test_base_order_does_not_matter():
    lad = ExponentLadder((2.0, 1.0))
    assert lad.take(1) == (1.0,)
    assert lad.take(4) == (1.0, 2.0, 3.0, 4.0)


def brute_force_closure(base, cutoff, unit=False):
    vals = set()
    frontier = {0.0}
    # all sums of base elements (plus optional +1 steps) up to the cutoff
    for _ in range(40):
        new = set()
        for v in frontier:
            for b in set(base) | ({1.0} if unit and v > 0 else set()):
                w = v + b
                if w <= cutoff + 1e-9 and not any(abs(w - u) < 1e-9 for u in vals | new):
                    new.add(w)
        if not new:
            break
        vals |= new
        frontier = new
    return tuple(sorted(vals))


def test_two_generator_ladder_matches_bruteforce():
    base = (1.0, math.sqrt(2.0))
    got = rates_upto(ExponentLadder(base), 4.0)
    expected = brute_force_closure(base, 4.0)
    assert len(got) == len(expected)
    np.testing.assert_allclose(got, expected, rtol=1e-12)


def test_unit_increment_closure():
    got = rates_upto(ExponentLadder((0.5,), unit_increment=True), 3.0)
    expected = brute_force_closure((0.5,), 3.0, unit=True)
    np.testing.assert_allclose(got, expected, rtol=1e-12)
    assert 1.5 in got


def test_realized_rates_strictly_increase():
    lad = ExponentLadder((0.7, 1.3))
    vals = lad.take(25)
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_ladder_base_validation():
    with pytest.raises(ValidationError, match="ladder base must be nonempty"):
        ExponentLadder(())
    with pytest.raises(ValidationError, match="ladder base rates must be positive"):
        ExponentLadder((1.0, -0.5))


def test_ladder_rejects_a_step_it_cannot_tell_from_the_rate():
    # 1e-12 + 1e-12 sits within the match tolerance of 1e-12: the rate
    # where G(u1, u1) lands would be merged into 1e-12 and never built
    for unit in (True, False):
        with pytest.raises(ValidationError, match="ladder step 1e-12 from rate 1e-12"):
            ExponentLadder((1e-12,), unit_increment=unit).take(4)
    # the steps from the last rate taken are checked too
    with pytest.raises(ValidationError, match="ladder step 1e-12 from rate 1e-12"):
        ExponentLadder((1e-12,)).take(1)


def _tiny_rate_spec(mode: str) -> ProblemSpec:
    # y' = -y + y^2 + t^(-1e-12), or its log-mode twin (log t)^(-1e-12)
    depth = 0 if mode == "power" else 1
    alpha = (0.0,) * depth + (0.0, -1e-12)
    f = LogPowerSum.build(1, depth, [(alpha, [1.0])])
    return ProblemSpec(
        matrix=np.array([[1.0]]), maps=(SQ,), forcing=((1e-12, f),),
        mode=mode, scale_index=depth, order=4,
    )


@pytest.mark.parametrize("mode", ["power", "log"])
def test_expand_rejects_a_ladder_that_merges_rates(mode):
    # power mode used to return (1e-12, 1 + 1e-12, ...) and drop the 2e-12
    # term; log mode ran out of candidates with a RuntimeError
    with pytest.raises(ValidationError, match="ladder step 1e-12 from rate 1e-12"):
        expand(_tiny_rate_spec(mode))


def test_index_of_realized_rates():
    lad = ExponentLadder((1.0,))
    assert lad.take(5).index(3.0) == 2
    assert 2.5 not in rates_upto(lad, 5.0)


def decompose(lad, mu, max_arity):
    # the engine's path: index multisets into the realized prefix up to mu,
    # mapped back to their rates
    rates = rates_upto(lad, mu)
    return tuple(
        tuple(rates[i] for i in parts) for parts in _decompose_values(rates, mu, max_arity)
    )


def test_decompose_worked_cases():
    lad = ExponentLadder((1.0,))
    assert decompose(lad, 2.0, 4) == ((1.0, 1.0),)
    assert decompose(lad, 4.0, 4) == (
        (1.0, 1.0, 1.0, 1.0),
        (1.0, 1.0, 2.0),
        (1.0, 3.0),
        (2.0, 2.0),
    )
    assert decompose(lad, 4.0, 2) == ((1.0, 3.0), (2.0, 2.0))
    assert decompose(lad, 1.0, 4) == ()


def test_decompose_matches_bruteforce_enumeration():
    lad = ExponentLadder((0.5, 0.8))
    mu = 2.1
    got = set(decompose(lad, mu, 3))
    smaller = [v for v in rates_upto(lad, mu) if v < mu - 1e-9]
    expected = set()
    for m in (2, 3):
        for combo in itertools.combinations_with_replacement(smaller, m):
            if abs(sum(combo) - mu) < 1e-9:
                expected.add(combo)
    assert got == expected


# ---------------------------------------------------------------------------
# problem validation


def test_validation_messages():
    f_ok = exp_forcing(1.0, [[1.0]])
    base = dict(matrix=np.array([[2.0]]), maps=(), forcing=(f_ok,), mode="exponential")

    with pytest.raises(ValidationError, match="matrix must be square"):
        ProblemSpec(**{**base, "matrix": np.array([[1.0, 0.0]])}).validate()
    with pytest.raises(ValidationError, match="matrix must be square"):
        ProblemSpec(**{**base, "matrix": np.array(2.0)}).validate()
    with pytest.raises(ValidationError, match="mode must be one of"):
        ProblemSpec(**{**base, "mode": "weird"}).validate()
    with pytest.raises(ValidationError, match="dissipativity violated"):
        ProblemSpec(**{**base, "matrix": np.array([[-1.0]])}).validate()
    with pytest.raises(ValidationError, match="arity >= 2"):
        ProblemSpec(**{**base, "maps": (MultiLinearMap(1, 1, ((0, (0,), 1.0),)),)}).validate()
    with pytest.raises(ValidationError, match="nonlinearity dimension mismatch"):
        ProblemSpec(**{**base, "maps": (MultiLinearMap(2, 2, ((0, (0, 0), 1.0),)),)}).validate()
    with pytest.raises(ValidationError, match="truncation order must be >= 1"):
        ProblemSpec(**base, order=0).validate()
    with pytest.raises(ValidationError, match="at least one forcing term"):
        ProblemSpec(**{**base, "forcing": ()}).validate()
    with pytest.raises(ValidationError, match="forcing decay rates must be positive"):
        ProblemSpec(**{**base, "forcing": (exp_forcing(-1.0, [[1.0]]),)}).validate()
    with pytest.raises(ValidationError, match="duplicate forcing rate"):
        ProblemSpec(**{**base, "forcing": (f_ok, exp_forcing(1.0 + 1e-14, [[2.0]]))}).validate()


def test_validation_forcing_shape_and_class():
    lp = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0])])
    with pytest.raises(ValidationError, match="exponential mode takes ExpPolySum forcing"):
        ProblemSpec(np.array([[2.0]]), (), ((1.0, lp),), "exponential").validate()
    with pytest.raises(ValidationError, match="power/log modes take LogPowerSum forcing"):
        ProblemSpec(np.array([[2.0]]), (), (exp_forcing(1.0, [[1.0]]),), "power").validate()
    with pytest.raises(ValidationError, match="off the -2.0 line"):
        bad = (2.0, ExpPolySum.build(1, [(-1.0, [[1.0]])]))
        ProblemSpec(np.array([[3.0]]), (), (bad,), "exponential").validate()
    with pytest.raises(ValidationError, match=r"outside the \(0, -1\.0\) class"):
        bad = (1.0, LogPowerSum.build(1, 0, [((0.5, -1.0), [1.0])]))
        ProblemSpec(np.array([[2.0]]), (), (bad,), "power").validate()
    with pytest.raises(ValidationError, match="forcing dimension mismatch"):
        bad = (1.0, ExpPolySum.build(2, [(-1.0, [[1.0, 0.0]])]))
        ProblemSpec(np.array([[2.0]]), (), (bad,), "exponential").validate()


def test_validation_scale_index_modes():
    lp1 = LogPowerSum.build(1, 1, [((0.0, 0.0, -1.0), [1.0])])
    with pytest.raises(ValidationError, match="power mode fixes scale_index = 0"):
        ProblemSpec(np.array([[1.0]]), (), ((1.0, lp1),), "power", scale_index=1).validate()
    with pytest.raises(ValidationError, match="log mode needs scale_index >= 1"):
        ProblemSpec(np.array([[1.0]]), (), ((1.0, lp1),), "log", scale_index=0).validate()


def test_validation_deeper_class_violation():
    # declared scale ln ln t but a raw ln t power sneaks in
    lp = LogPowerSum.build(1, 2, [((0.0, 0.0, -0.3, -1.0), [1.0])])
    with pytest.raises(ValidationError, match=r"outside the \(2, -1\.0\) class"):
        ProblemSpec(np.array([[1.0]]), (), ((1.0, lp),), "log", scale_index=2).validate()


# ---------------------------------------------------------------------------
# exponential mode expansion


def test_quadratic_resonant_cascade():
    spec = ProblemSpec(np.array([[2.0]]), (SQ,), (exp_forcing(1.0, [[1.0]]),),
                       "exponential", order=3)
    with pytest.warns(RuntimeWarning, match="degrees above 2 are taken to be absent"):
        exp_ = expand(spec)
    assert exp_.rates == (1.0, 2.0, 3.0)

    y1 = ExpPolySum.build(1, [(-1.0, [[1.0]])])
    assert coeff_distance_exp(exp_.term(1), y1) < 1e-14

    y2 = ExpPolySum.build(1, [(-2.0, [[0.0], [1.0]])])
    assert coeff_distance_exp(exp_.term(2), y2) < 1e-14
    kernel = exp_.orders[1].kernel
    assert len(kernel) == 1
    assert coeff_distance_exp(kernel[0], ExpPolySum.build(1, [(-2.0, [[1.0]])])) < 1e-14

    for k in (1, 2, 3):
        assert symbolic_defect(exp_, k).is_zero()
        assert exp_.term(k).in_class(-exp_.rates[k - 1])


def test_zero_forcing_gives_zero_terms():
    zero = (2.0, ExpPolySum.zero(1))
    spec = ProblemSpec(np.array([[2.0]]), (SQ,), (zero,), "exponential", order=3)
    with pytest.warns(RuntimeWarning):
        exp_ = expand(spec)
    assert all(exp_.term(k).is_zero() for k in range(1, exp_.order_count() + 1))


def test_forcing_below_leading_eigenrate():
    spec = ProblemSpec(np.array([[1.0]]), (), (exp_forcing(2.0, [[1.0]]),),
                       "exponential", order=2)
    exp_ = expand(spec)
    assert exp_.rates[:2] == (1.0, 2.0)
    assert exp_.term(1).is_zero()
    expected = ExpPolySum.build(1, [(-2.0, [[-1.0]])])
    assert coeff_distance_exp(exp_.term(2), expected) < 1e-14
    # the hidden eigenmode still owns free constants at its own rate
    assert len(exp_.orders[0].kernel) == 1


def test_defect_detects_tampered_terms():
    spec = ProblemSpec(np.array([[2.0]]), (SQ,), (exp_forcing(1.0, [[1.0]]),),
                       "exponential", order=2)
    with pytest.warns(RuntimeWarning):
        exp_ = expand(spec)
    tampered = exp_.orders[0].term + ExpPolySum.build(1, [(-1.0, [[1e-3]])])
    orders = (
        type(exp_.orders[0])(mu=1.0, term=tampered),
        exp_.orders[1],
    )
    bad = type(exp_)(orders=orders, spec=exp_.spec)
    # the extra delta*exp(-t) feeds (A - 1) delta = delta into the defect
    d = symbolic_defect(bad, 1)
    assert not d.is_zero()
    assert d.sup_norm() == pytest.approx(1e-3, rel=1e-9)


def test_defect_index_out_of_range():
    exp_ = expand(riccati_spec(order=2))
    with pytest.raises(IndexError, match="order out of range"):
        symbolic_defect(exp_, 3)


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
@pytest.mark.parametrize("name", ["riccati", "resonant", "oscillatory_log"])
def test_lower_truncation_is_a_bitwise_prefix(name):
    # construction is order by order, so building to order 2 gives exactly
    # the first two orders of the order-5 build, kernels included
    spec = build_problem(load_config(CONFIGS / f"{name}.json"))
    short, full = expand(spec, 2), expand(spec, 5)
    assert full.order_count() == 5 and short.rates == full.rates[:2]
    for got, want in zip(short.orders, full.orders[:2]):
        assert_bitwise_equal(got.term, want.term)
        assert len(got.kernel) == len(want.kernel)
        for g, w in zip(got.kernel, want.kernel):
            assert_bitwise_equal(g, w)
    # the mode is the problem's, not a copy that could drift from it
    assert short.mode == spec.mode
    assert "mode" not in {f.name for f in dataclasses.fields(short)}


# ---------------------------------------------------------------------------
# one clustering of the spectrum: the ladder's eigen-rates and the kernel modes

# S J S^-1 with J a 2x2 Jordan block at 1 and a simple eigenvalue 3; the
# computed copies of the double eigenvalue scatter by about 7e-9
JORDAN = np.array([[2.0, 1.0, -1.0], [-2.0, 1.0, 2.0], [-1.0, 1.0, 2.0]])


def _exp_spec(A, forcing, order: int) -> ProblemSpec:
    n = A.shape[0]
    return ProblemSpec(A, (), tuple((mu, ExpPolySum.build(n, raw)) for mu, raw in forcing),
                       "exponential", order=order)


def _orders_near(expansion, rate: float, tol: float = 1e-6):
    return [o for o in expansion.orders if abs(o.mu - rate) < tol]


@pytest.mark.parametrize("forcing", [
    [(1.0, [(-1.0, [[0.01, 0.02, -0.01]])])],
    [(0.5, [(-0.5, [[1.0, 0.0, 0.0]])])],
], ids=["forced", "unforced"])
def test_defective_eigenvalue_has_one_order_with_its_full_kernel(forcing):
    exp_ = expand(_exp_spec(JORDAN, forcing, 4))
    (order,) = _orders_near(exp_, 1.0)
    assert order.mu == 1.0
    assert sorted(mode_degree(m) for m in order.kernel) == [0, 1]
    assert [m.exponents() for m in order.kernel] == [[-1.0], [-1.0]]
    zero = ExpPolySum.zero(3)
    for m in order.kernel:
        assert resolvent_defect(JORDAN, zero, m).sup_norm() < 1e-7 * m.sup_norm()


def _jordan_cases():
    for size in (2, 3):
        for seed in range(6):
            rng = np.random.default_rng(seed)
            P = rng.standard_normal((size, size)) + 1j * rng.standard_normal((size, size))
            J = 2.0 * np.eye(size) + np.eye(size, k=1)
            yield pytest.param(P @ J @ np.linalg.inv(P), 2.0, id=f"complex-{size}-{seed}")
    rng = np.random.default_rng(109)
    for n in (2, 3, 4):
        for lam in (1, 2, 3):
            yield pytest.param(jordan_plant(rng, n, lam), float(lam), id=f"plant-{n}-{lam}")


@pytest.mark.parametrize("A, lam", list(_jordan_cases()))
def test_every_jordan_cluster_has_one_order_with_a_mode_per_multiplicity(A, lam):
    n = A.shape[0]
    exp_ = expand(_exp_spec(A, [(0.7, [(-0.7, [np.ones(n)])])], 6))
    (order,) = _orders_near(exp_, lam)
    assert order.mu == lam
    assert sorted(mode_degree(m) for m in order.kernel) == list(range(n))
    assert sum(len(o.kernel) for o in exp_.orders) == n
    assert exp_.spec.clusters == ((complex(-lam), n),)


def test_a_mode_sits_on_its_own_rate_only():
    # 2 + 5e-10 is a ladder rate of its own, next to the forcing's 2
    A = np.array([[2.0 + 5e-10]])
    spec = ProblemSpec(A, (), (exp_forcing(1.0, [[1.0]]), (2.0, ExpPolySum.zero(1))),
                       "exponential", order=3)
    exp_ = expand(spec)
    assert exp_.rates == (1.0, 2.0, 2.0000000005)
    assert [len(o.kernel) for o in exp_.orders] == [0, 0, 1]


def test_close_simple_eigenvalues_are_not_merged():
    rng = np.random.default_rng(5)
    Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    A = Q @ np.diag([2.0, 2.0 + 1e-6, 3.0]) @ Q.T
    exp_ = expand(_exp_spec(A, [(1.0, [(-1.0, [[1.0, 0.0, 0.0]])])], 4))
    assert exp_.rates == (1.0, 2.0, 2.000001, 3.0)
    assert [len(o.kernel) for o in exp_.orders] == [0, 1, 1, 1]


@pytest.mark.parametrize("forcing", [
    [(1.0, [(-1.0 - 2.0j, [[1.0, 0.0]]), (-1.0 + 2.0j, [[0.0, 1.0]])])],
    [(0.5, [(-0.5, [[1.0, 0.0]])])],
], ids=["forced", "unforced"])
def test_conjugate_kernel_modes_come_in_canonical_order(forcing):
    exp_ = expand(_exp_spec(np.array([[1.0, -2.0], [2.0, 1.0]]), forcing, 3))
    (order,) = [o for o in exp_.orders if o.kernel]
    assert order.mu == 1.0
    assert [m.exponents()[0] for m in order.kernel] == [-1.0 - 2.0j, -1.0 + 2.0j]


def test_one_eigen_decomposition_per_problem(monkeypatch):
    calls = []
    eigvals = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda a: calls.append(1) or eigvals(a))
    expand(_exp_spec(JORDAN, [(1.0, [(-1.0, [[0.01, 0.02, -0.01]])])], 5))
    assert len(calls) == 1
    expand(build_problem(load_config(CONFIGS / "jordan_resonant.json")), 3)
    assert len(calls) == 2


# ---------------------------------------------------------------------------
# the interaction sum: one symmetrized map call per multiset in power/log mode


def _spec(case: str) -> ProblemSpec:
    """A shipped config by name, or a benchmark pool problem as 'workload:index'."""
    if ":" in case:
        workload, index = case.split(":")
        return build_problem(bench_module("workloads").problem(workload, int(index)).config)
    return build_problem(load_config(CONFIGS / f"{case}.json"))


def _expand_per_ordering(monkeypatch, spec, order):
    with monkeypatch.context() as m:
        m.setattr(engine, "_interaction_sum", interaction_sum_oracle)
        return expand(spec, order)


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
@pytest.mark.parametrize(
    "case, order",
    [("power-expand:0", 12), ("power-expand:3", 12), ("power-expand:15", 12), ("oscillatory_log", 7)],
)
def test_symmetrized_interactions_match_the_per_ordering_sum(case, order, monkeypatch):
    spec = _spec(case)
    assert spec.mode in ("power", "log")
    got = expand(spec, order)
    want = _expand_per_ordering(monkeypatch, spec, order)
    assert got.rates == want.rates
    for g, w in zip(got.orders, want.orders):
        scale = float(abs(w.term.xis).max(initial=0.0))
        assert coeff_distance_logpower(g.term, w.term) <= 1e-13 * scale


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_symmetrized_scalar_square_is_bit_identical(monkeypatch):
    # riccati's y^2: the symmetrized map is 2 and the (a, a) weight 1/2, both
    # exact, and with a unit coefficient the two orderings of (a, b) round
    # alike, so the multiset sum reproduces the per-ordering sum bit for bit
    spec = _spec("riccati")
    got = expand(spec, 12)
    want = _expand_per_ordering(monkeypatch, spec, 12)
    for g, w in zip(got.orders, want.orders):
        assert_bitwise_equal(g.term, w.term)


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
@pytest.mark.parametrize(
    "case, order",
    [
        ("power-expand:0", 12),
        ("power-expand:3", 12),
        ("power-expand:15", 12),
        ("oscillatory_log", 7),
        ("riccati", 12),
    ],
)
def test_one_canonicalization_per_order_matches_the_per_multiset_sum(case, order, monkeypatch):
    # stacking each order's products and canonicalizing its right-hand side
    # once only regroups the sums: every order keeps its terms, and the
    # coefficients move by rounding alone
    spec = _spec(case)
    got = expand(spec, order)
    with monkeypatch.context() as m:
        m.setattr(engine, "_rate_rhs", rate_rhs_per_multiset_oracle)
        want = expand(spec, order)
    assert got.rates == want.rates
    for g, w in zip(got.orders, want.orders):
        assert g.term.depth == w.term.depth
        assert list(g.term.terms) == list(w.term.terms)
        scale = float(abs(w.term.xis).max(initial=0.0))
        assert coeff_distance_logpower(g.term, w.term) <= 2e-15 * scale


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_power_expand_pool_matches_the_benchmark_reference():
    # the benchmark's check on every power-expand pool problem, in process:
    # a reordered sum that moves a coefficient past the reference bound
    # fails here, not only in a benchmark run
    check, workloads = bench_module("check"), bench_module("workloads")
    with gzip.open(REFERENCE / "power-expand.json.gz", "rt", encoding="utf-8") as fh:
        reference = json.load(fh)
    for index in range(workloads.POOL_SIZE):
        prob = workloads.problem("power-expand", index)
        got = json.loads(json.dumps(expansion_records(expand(build_problem(prob.config)))))
        errors = check.compare_expansion(reference[prob.name]["expand"]["expansion"], got)
        assert errors == [], prob.name


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_power_expand_peak_memory_is_bounded():
    # an order's products are gathered in blocks of rows: the traced peak
    # is 1.02 MB on numpy 2.4, and stacking a whole order's argument rows
    # at once takes it to 1.92 MB
    spec = _spec("power-expand:0")
    expand(spec, 10)  # builds the symmetrized maps once
    assert peak_bytes(lambda: expand(spec, 10)) <= PEAK_BOUND


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
@pytest.mark.parametrize(
    "case, order",
    [
        ("exp-resonant:0", 7),
        ("exp-resonant:3", 7),
        ("exp-resonant:15", 7),
        ("resonant", None),
        ("power-expand:0", 10),
    ],
)
def test_expansion_is_bit_identical_under_the_per_entry_batch_oracle(case, order, monkeypatch):
    # the exponential-mode resonant recursion amplifies last-bit changes, so
    # the slot-wise kernel must not move a single bit of any order
    spec = _spec(case)
    got = expand(spec, order)
    with monkeypatch.context() as m:
        m.setattr(MultiLinearMap, "batch", batch_oracle)
        want = expand(spec, order)
    assert got.rates == want.rates
    for g, w in zip(got.orders, want.orders):
        assert_bitwise_equal(g.term, w.term)
        assert len(g.kernel) == len(w.kernel)
        for gk, wk in zip(g.kernel, w.kernel):
            assert_bitwise_equal(gk, wk)


def test_exp_resonant_expansion_is_bit_identical_under_the_padded_product(monkeypatch):
    # ragged stacks leave out only padding products, which added exact
    # zeros; nine orders of resonant recursion must not move a single bit
    spec = _spec("exp-resonant:0")
    got = expand(spec, 9)
    with monkeypatch.context() as m:
        m.setattr(engine, "mul_apply_exp", mul_apply_exp_padded_oracle)
        want = expand(spec, 9)
    assert got.rates == want.rates and len(got.orders) == 9
    assert any(g.kernel for g in got.orders)
    for g, w in zip(got.orders, want.orders):
        assert_bitwise_equal(g.term, w.term)
        assert len(g.kernel) == len(w.kernel)
        for gk, wk in zip(g.kernel, w.kernel):
            assert_bitwise_equal(gk, wk)


def _count_mul_apply(monkeypatch) -> dict[str, int]:
    counts = {"mul_apply_logpower": 0, "mul_apply_exp": 0}
    for name in counts:
        def counted(*args, _name=name, _inner=getattr(engine, name), **kwargs):
            counts[_name] += 1
            return _inner(*args, **kwargs)

        monkeypatch.setattr(engine, name, counted)
    return counts


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_power_mode_applies_each_map_once_per_order(monkeypatch):
    counts = _count_mul_apply(monkeypatch)
    expand(_spec("power-expand:0"), 10)
    # one call per (order, map) with a multiset of that arity: the quadratic
    # map at orders 2-10 and the cubic map at orders 3-10.  One call per
    # (multiset, map) made 56, and one per ordering 165
    assert counts == {"mul_apply_logpower": 17, "mul_apply_exp": 0}


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_exponential_mode_applies_each_map_once_per_ordering(monkeypatch):
    # rates 1..6 and one quadratic map: 9 multisets, 15 orderings.  The
    # exponential-mode check pins one rounding pattern, so this mode keeps
    # summing over orderings
    counts = _count_mul_apply(monkeypatch)
    expand(_spec("resonant"), 6)
    assert counts == {"mul_apply_logpower": 0, "mul_apply_exp": 15}


def test_arity_warning_names_the_caller_of_expand():
    spec = _spec("resonant")
    with pytest.warns(RuntimeWarning, match="the remainder analysis") as record:
        expand(spec, 4)
    assert [Path(w.filename) for w in record] == [Path(__file__)]


# ---------------------------------------------------------------------------
# power mode expansion


def test_riccati_leading_coefficients():
    exp_ = expand(riccati_spec(order=2))
    q1 = LogPowerSum.build(1, 0, [((0.0, -1.0), [1.0])])
    q2 = LogPowerSum.build(1, 0, [((0.0, -2.0), [2.0])])
    assert coeff_distance_logpower(exp_.term(1), q1) < 1e-13
    assert coeff_distance_logpower(exp_.term(2), q2) < 1e-13
    for k in (1, 2):
        assert symbolic_defect(exp_, k).is_zero()
        assert exp_.term(k).in_class(0, -exp_.rates[k - 1])


def test_power_mode_without_nonlinearity_descends_inverse_powers():
    A = np.diag([2.0, 5.0])
    xi = np.array([1.0, 1.0])
    f = LogPowerSum.build(2, 0, [((0.0, -1.0), xi)])
    exp_ = expand(ProblemSpec(A, (), ((1.0, f),), "power", order=2))
    np.testing.assert_allclose(exp_.term(1).items()[0][1], np.linalg.solve(A, xi), rtol=1e-13)
    np.testing.assert_allclose(
        exp_.term(2).items()[0][1], np.linalg.solve(A @ A, xi), rtol=1e-13
    )


def test_power_mode_oscillatory_forcing_shifts_the_inverse():
    A = np.diag([2.0, 5.0])
    xi = np.array([1.0, 1.0])
    f = LogPowerSum.build(2, 0, [((2.0j, -1.0), xi)])
    exp_ = expand(ProblemSpec(A, (), ((1.0, f),), "power", order=1))
    expected = np.linalg.solve(A + 2j * np.eye(2), xi.astype(complex))
    np.testing.assert_allclose(exp_.term(1).items()[0][1], expected, rtol=1e-13)


def test_power_ladder_gets_unit_increments():
    f = LogPowerSum.build(1, 0, [((0.0, -1.5), [1.0])])
    exp_ = expand(ProblemSpec(np.array([[1.0]]), (), ((1.5, f),), "power", order=3))
    assert exp_.rates == (1.5, 2.5, 3.0)


def test_superset_base_reproduces_shared_orders():
    spec = riccati_spec(order=3)
    base = expand(spec)
    widened = ProblemSpec(
        spec.matrix, spec.maps,
        spec.forcing + ((2.5, LogPowerSum.zero(1, 0)),),
        "power", order=5,
    )
    wide = expand(widened)
    assert wide.rates == (1.0, 2.0, 2.5, 3.0, 3.5)
    by_rate = {o.mu: o.term for o in wide.orders}
    for o in base.orders:
        assert by_rate[o.mu].to_records() == o.term.to_records()
    assert by_rate[2.5].is_zero()
    assert by_rate[3.5].is_zero()


# ---------------------------------------------------------------------------
# log mode expansion


def test_log_mode_linear_problem():
    f = LogPowerSum.build(1, 1, [((0.0, 0.0, -1.0), [1.0])])
    spec = ProblemSpec(np.array([[3.0]]), (), ((1.0, f),), "log", scale_index=1, order=3)
    exp_ = expand(spec)
    q1 = LogPowerSum.build(1, 1, [((0.0, 0.0, -1.0), [1.0 / 3.0])])
    assert coeff_distance_logpower(exp_.term(1), q1) < 1e-14
    assert exp_.term(2).is_zero()
    assert exp_.term(3).is_zero()


def test_log_mode_quadratic_cascade():
    f = LogPowerSum.build(1, 1, [((0.0, 0.0, -1.0), [1.0])])
    spec = ProblemSpec(np.array([[1.0]]), (SQ,), ((1.0, f),), "log", scale_index=1, order=2)
    with pytest.warns(RuntimeWarning):
        exp_ = expand(spec)
    q1 = LogPowerSum.build(1, 1, [((0.0, 0.0, -1.0), [1.0])])
    q2 = LogPowerSum.build(1, 1, [((0.0, 0.0, -2.0), [1.0])])
    assert coeff_distance_logpower(exp_.term(1), q1) < 1e-14
    assert coeff_distance_logpower(exp_.term(2), q2) < 1e-14
    for k in (1, 2):
        assert symbolic_defect(exp_, k).is_zero()


def test_partial_sums_accumulate_terms():
    exp_ = expand(riccati_spec(order=2))
    t = 50.0
    np.testing.assert_allclose(eval_partial_sum(exp_, 0, t), [0.0])
    np.testing.assert_allclose(eval_partial_sum(exp_, 1, t), exp_.term(1).eval(t))
    np.testing.assert_allclose(
        eval_partial_sum(exp_, 2, t), exp_.term(1).eval(t) + exp_.term(2).eval(t)
    )
