import copy
import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from helpers import (
    assert_arrays_bitwise_equal,
    bench_module,
    burgers_galerkin_map,
    field_oracle,
    integrate_rhs_oracle,
    integrate_rhs_scalar_oracle,
    kernel_exp_oracle,
    kernel_logpower_oracle,
    remainder_series_oracle,
    rhs_oracle,
    sample_oracle,
)
from odexpand import ExpPolySum, LogPowerSum, MultiLinearMap, ladder_view, numerics, time_derivative
from odexpand.cli import _verify_options, build_problem
from odexpand.engine import ProblemSpec, eval_partial_sum, expand
from odexpand.numerics import (
    _kronecker_directions,
    decay_envelope_constant,
    fit_decay,
    fit_kernel_constants,
    matrix_exp_norm,
    remainder_series,
)
from odexpand.rk45 import Trajectory

CONFIGS = Path(__file__).resolve().parent.parent / "configs"

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
    assert decay_envelope_constant(A, lam1) == pytest.approx(expected, rel=1e-13)


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


# ---------------------------------------------------------------------------
# integration: one generated rhs(t, y) per problem, called at each stage time


def _config(case: str) -> dict:
    """A shipped config by name, a benchmark pool problem as 'workload:index',
    'two-records': verify-long problem 0 with a second, depth-1 forcing
    record, so each stage sums two records in order, 'dim3-two-records':
    exp-resonant problem 0 (dim 3) with a second, rate-2.5 forcing record,
    'dim3-unforced': the same config, which ``_integration_run`` integrates
    without forcing, or 'burgers:n': the n-mode Galerkin Burgers system
    (A = diag(k^2), forcing t^-1 / k) from y0 = 0 over t in [10, 30]."""
    if case.startswith("burgers:"):
        n = int(case.split(":")[1])
        entries = [[i, *ins, v.real] for i, ins, v in burgers_galerkin_map(n).entries]
        return {
            "problem": {
                "matrix": np.diag(np.arange(1.0, n + 1) ** 2).tolist(),
                "nonlinearity": [{"arity": 2, "entries": entries}],
                "forcing": [
                    {
                        "rate": 1.0,
                        "type": "log_power",
                        "depth": 0,
                        "terms": [
                            {"alpha": [0.0, -1.0], "vector": (1.0 / np.arange(1, n + 1)).tolist()}
                        ],
                    }
                ],
                "mode": "power",
            },
            "verification": {
                "y0": [0.0] * n, "t_span": [10.0, 30.0], "rel_tol": 1e-10, "abs_tol": 1e-12,
            },
        }
    if case == "riccati-log-oscillation":
        # riccati plus 0.25 t^-2 ((log t)^i + (log t)^-i) at rate 2: a depth-1
        # record of two complex-exponent terms
        cfg = _config("riccati")
        cfg["problem"]["forcing"].append(
            {
                "rate": 2.0,
                "type": "log_power",
                "depth": 1,
                "terms": [
                    {"alpha": [0.0, -2.0, [0.0, s]], "vector": [0.25]} for s in (1.0, -1.0)
                ],
            }
        )
        return cfg
    if case == "two-records":
        cfg = copy.deepcopy(_config("verify-long:0"))
        cfg["problem"]["forcing"].append(
            {
                "rate": 2.0,
                "type": "log_power",
                "depth": 1,
                "terms": [{"alpha": [0.0, -2.0, 0.5], "vector": [0.7]}],
            }
        )
        return cfg
    if case in ("dim3-two-records", "dim3-unforced"):
        cfg = copy.deepcopy(_config("exp-resonant:0"))
        cfg["problem"]["forcing"].append(
            {
                "rate": 2.5,
                "type": "exp_poly",
                "terms": [{"exponent": -2.5, "rows": [[0.3, -0.2, 0.1]]}],
            }
        )
        return cfg
    if ":" in case:
        workload, index = case.split(":")
        return bench_module("workloads").problem(workload, int(index)).config
    return json.loads((CONFIGS / f"{case}.json").read_text())


INTEGRATION_CASES = [
    "riccati",
    "resonant",
    "verify-long:0",
    "verify-long:1",
    "exp-resonant:0",
    "exp-resonant:3",
    "exp-resonant:15",
    "two-records",
    "riccati-log-oscillation",
    "burgers:8",
    "dim3-two-records",
    "dim3-unforced",
]


def _case_spec(case: str, cfg: dict) -> ProblemSpec:
    spec = build_problem(cfg)
    return dataclasses.replace(spec, forcing=()) if case == "dim3-unforced" else spec


def _integration_run(case: str):
    """A case's problem, its integration arguments and the package's trajectory."""
    cfg = _config(case)
    spec = _case_spec(case, cfg)
    assert not case.endswith(("two-records", "oscillation")) or len(spec.forcing) == 2
    ver = cfg["verification"]
    y0 = [complex(x) for x in ver["y0"]]
    args = (y0, ver["t_span"], ver["rel_tol"], ver["abs_tol"])
    return spec, args, numerics.integrate(spec, *args)


@pytest.mark.parametrize("case", INTEGRATION_CASES)
def test_trajectory_matches_the_per_stage_loop_bitwise(case):
    spec, args, got = _integration_run(case)
    want = integrate_rhs_scalar_oracle(rhs_oracle(spec), *args)
    assert got.meta == want.meta
    for name in ("ts", "states", "derivs"):
        assert_arrays_bitwise_equal(getattr(got, name), getattr(want, name))
    assert got.ts[-1] == args[1][1]


@pytest.mark.parametrize("case", INTEGRATION_CASES)
def test_trajectory_agrees_with_the_numpy_loop(case):
    # The numpy loop forms each stage input with a BLAS product, which rounds
    # differently, so the accepted times drift apart at rounding level and
    # the dense outputs differ by the interpolation error between them.
    # Measured max |difference| / (rel_tol * max|y| + abs_tol) on a 4001-point
    # grid: 1.37 on resonant, whose N=2 fit already sits at the integrator's
    # noise floor, and at most 0.007 on every other case.
    spec, args, got = _integration_run(case)
    want = integrate_rhs_oracle(rhs_oracle(spec), *args)
    assert got.meta["steps"] == want.meta["steps"]
    assert got.meta["rejected"] == want.meta["rejected"]
    ts = np.linspace(got.ts[0], min(got.ts[-1], want.ts[-1]), 4001)
    scale = args[2] * np.abs(want.states).max() + args[3]
    assert np.abs(got.sample(ts) - want.sample(ts)).max() <= 4 * scale


def _field_states(rng, n: int, count: int = 20) -> list[list[complex]]:
    """Random states, the first few with signed zeros in some components."""
    states = []
    for s in range(count):
        y = (rng.standard_normal(n) + 1j * rng.standard_normal(n)).tolist()
        if s < 4:
            for j in rng.choice(n, size=max(1, n // 2), replace=False).tolist():
                y[j] = complex(*rng.choice([0.0, -0.0], 2).tolist())
        states.append(y)
    return states


def _rhs_oracle_sum(spec):
    """t, y -> field_oracle(y) plus each forcing record's oracle value at t,
    added componentwise in record order: the sum the integrator formed when
    the forcing was a separate contract."""
    field = field_oracle(spec)

    def rhs(t, y):
        out = field(y)
        for _, term in spec.forcing:
            if isinstance(term, LogPowerSum):
                value = kernel_logpower_oracle(term, t)
            else:
                value = kernel_exp_oracle(term, t)
            out = [a + b for a, b in zip(out, value)]
        return out

    return rhs


@pytest.mark.parametrize("case", INTEGRATION_CASES + ["burgers:16", "burgers:32"])
def test_generated_rhs_matches_the_field_plus_the_record_oracles_bitwise(case):
    cfg = _config(case)
    spec = _case_spec(case, cfg)
    got, want = numerics.make_rhs(spec), _rhs_oracle_sum(spec)
    rng = np.random.default_rng(list(case.encode()))
    ts = rng.uniform(*cfg["verification"]["t_span"], 20).tolist()
    for t, y in zip(ts, _field_states(rng, spec.dim)):
        out = got(t, y)
        assert isinstance(out, list)
        assert_arrays_bitwise_equal(np.array(out), np.array(want(t, y)))


_QUADRATIC = MultiLinearMap(2, 2, ((0, (0, 1), 0.5), (1, (1, 1), -1.25j), (1, (0, 0), 0.75)))
EDGE_FIELDS = {
    "no-maps": ProblemSpec(np.array([[2.0, -1.0], [0.5, 3.0]]), (), (), "power", 1),
    "zero-row": ProblemSpec(np.array([[1.5, 0.3], [0.0, 0.0]]), (_QUADRATIC,), (), "power", 1),
    # entries with a zero real or imaginary part, so -A has -0.0 parts
    "complex": ProblemSpec(MATRICES["complex"], (_QUADRATIC,), (), "exponential", 1),
    "arity-1-map": ProblemSpec(
        np.array([[1.0, 0.0], [0.2, 2.0]]),
        (MultiLinearMap(1, 2, ((0, (1,), 0.5j), (1, (0,), -1.0))), _QUADRATIC),
        (),
        "power",
        1,
    ),
    # a record with complex exponents, a zero record and a record that is
    # zero in one component; then the exponential counterparts
    "zero-records": ProblemSpec(
        np.array([[1.0, 0.5], [0.0, 2.0]]),
        (_QUADRATIC,),
        (
            (
                1.0,
                LogPowerSum.build(
                    2, 1, [((0.0, -1.0, s * 0.5j), [0.25, -s * 0.5j]) for s in (1.0, -1.0)]
                ),
            ),
            (1.0, LogPowerSum.zero(2, 0)),
            (2.0, LogPowerSum.build(2, 0, [((0.0, -2.0), [0.0, 1.5])])),
        ),
        "power",
        1,
    ),
    "zero-exp-records": ProblemSpec(
        MATRICES["complex"],
        (_QUADRATIC,),
        (
            (1.0, ExpPolySum.build(2, [(-1.0 + 2.0j, [[0.0, 0.5 - 1.0j], [0.0, 0.25]])])),
            (2.0, ExpPolySum.build(2, [])),
        ),
        "exponential",
        1,
    ),
}


@pytest.mark.parametrize("name", sorted(EDGE_FIELDS))
def test_generated_rhs_matches_the_field_plus_the_record_oracles_on_edge_specs(name):
    spec = EDGE_FIELDS[name]
    got, want = numerics.make_rhs(spec), _rhs_oracle_sum(spec)
    rng = np.random.default_rng(list(name.encode()))
    ts = rng.uniform(3.0, 30.0, 20).tolist()
    for t, y in zip(ts, _field_states(rng, spec.dim)):
        out = got(t, y)
        assert isinstance(out, list)
        assert_arrays_bitwise_equal(np.array(out), np.array(want(t, y)))


@pytest.mark.parametrize("name", ["arity-1-map", "exp-resonant:0", "no-maps", "two-records"])
def test_the_rhs_calls_each_map_once_per_evaluation_on_the_state_list(name, monkeypatch):
    spec = EDGE_FIELDS[name] if name in EDGE_FIELDS else build_problem(_config(name))
    calls = []
    call = MultiLinearMap.__call__

    def counted_call(self, *args):
        calls.append((self, args))
        return call(self, *args)

    monkeypatch.setattr(MultiLinearMap, "__call__", counted_call)
    rhs = numerics.make_rhs(spec)
    assert calls == []
    for y in _field_states(np.random.default_rng(0), spec.dim, 3):
        rhs(20.0, y)
        assert [id(g) for g, _ in calls] == [id(g) for g in spec.maps]
        for g, args in calls:
            assert len(args) == g.arity and all(a is y for a in args)
        calls.clear()


def test_integrate_calls_the_hooks_it_looks_up(monkeypatch):
    # the right-hand side comes from numerics.make_rhs and the run from
    # numerics.integrate_rhs, each looked up when integrate runs
    spec = build_problem(_config("two-records"))
    ver = _config("two-records")["verification"]
    made, rhs_calls, gates, runs = [], [], [], []
    make_rhs, integrate_rhs = numerics.make_rhs, numerics.integrate_rhs
    eval_ = LogPowerSum.eval

    def counted_make_rhs(spec):
        made.append(spec)
        rhs = make_rhs(spec)
        return lambda t, y: rhs_calls.append(t) or rhs(t, y)

    def counted_integrate_rhs(*args):
        runs.append(integrate_rhs(*args))
        return runs[-1]

    def counted_eval(self, t):
        gates.append(t)
        return eval_(self, t)

    monkeypatch.setattr(numerics, "make_rhs", counted_make_rhs)
    monkeypatch.setattr(numerics, "integrate_rhs", counted_integrate_rhs)
    monkeypatch.setattr(LogPowerSum, "eval", counted_eval)
    traj = numerics.integrate(spec, ver["y0"], (10.0, 60.0), ver["rel_tol"], ver["abs_tol"])
    assert made == [spec] and runs == [traj]
    attempts = traj.meta["steps"] + traj.meta["rejected"]
    assert len(rhs_calls) == traj.meta["rhs_evals"] == 2 + 6 * attempts
    assert rhs_calls[0] == 10.0 and min(rhs_calls) == 10.0
    # one domain gate per power/log record, at t0, and no other eval
    assert gates == [10.0, 10.0]


def test_integrate_from_the_forcing_threshold_raises_the_forcings_error():
    # riccati's forcing t^-1 sits at depth 0: defined for t > 1, and the
    # first forcing call at t0 = 1 raises
    cfg = _config("riccati")
    spec = build_problem(cfg)
    with pytest.raises(ValueError, match="t = 1.0 below the depth-0 evaluation threshold"):
        numerics.integrate(spec, cfg["verification"]["y0"], (1.0, 100.0), 1e-10, 1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_forcing_stops_at_the_initial_point_with_a_value_error():
    # t^-1 (log t)^400 overflows on [1e4, 2e4]: the kernel gives eval's inf,
    # and the integrator's finiteness check raises, not an OverflowError
    cfg = _config("riccati")
    cfg["problem"]["forcing"] = [
        {
            "rate": 1.0,
            "type": "log_power",
            "depth": 1,
            "terms": [{"alpha": [0.0, -1.0, 400.0], "vector": [1.0]}],
        }
    ]
    spec = build_problem(cfg)
    with pytest.raises(ValueError, match="right-hand side not finite at the initial point"):
        numerics.integrate(spec, [0.1], (1e4, 2e4), 1e-10, 1e-12)


# ---------------------------------------------------------------------------
# the remainder pipeline: one sample of the trajectory, one table of |y - S_N|

EPS = np.finfo(float).eps


def _verify_run(case: str):
    """A case's expansion, trajectory and the grid verify samples it on."""
    cfg = _config(case)
    ver = cfg["verification"]
    if case == "riccati":
        ver["t_span"] = [10.0, 1000.0]
    spec = build_problem(cfg)
    traj = numerics.integrate(spec, ver["y0"], ver["t_span"], ver["rel_tol"], ver["abs_tol"])
    return expand(spec), traj, _verify_options(cfg, spec, None)["grid"]


def test_array_sample_matches_the_scalar_oracle():
    # a decaying oscillation integrated in few long steps, sampled densely
    traj = numerics.integrate_rhs(
        lambda t, y: [-0.5 * y[0] + 3j * y[0], -y[0] - 2.0 * y[1]],
        [1.0, 0.5j],
        (0.0, 20.0),
        rel_tol=1e-6,
        abs_tol=1e-9,
    )
    ts = np.concatenate([np.linspace(0.0, 20.0, 4001), traj.ts])
    got = traj.sample(ts)
    want = np.array([sample_oracle(traj, t) for t in ts])
    assert got.shape == (len(ts), 2)
    # the Hermite weights' squares may differ from the oracle's in the last bit
    i = np.minimum(np.searchsorted(traj.ts, ts, side="right") - 1, len(traj.ts) - 2)
    h = (traj.ts[i + 1] - traj.ts[i])[:, None]
    size = (
        abs(traj.states[i]) + abs(traj.states[i + 1])
        + h * (abs(traj.derivs[i]) + abs(traj.derivs[i + 1]))
    )
    assert np.all(abs(got - want) <= 4 * EPS * size)
    assert np.mean(got == want) > 0.99
    # every accepted point, t1 included, gives its stored state
    np.testing.assert_array_equal(got[4001:], traj.states)
    assert_arrays_bitwise_equal(traj.sample(traj.t1), traj.states[-1])
    assert_arrays_bitwise_equal(traj.sample(ts[17]), got[17])
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.sample(np.array([1.0, 20.5]))


def test_sample_at_t1_keeps_the_sign_of_a_zero():
    # the Hermite formula at s = 1 would turn this -0.0 into +0.0
    states = np.array([[1.0 + 1.0j], [complex(-0.0, -1.0)]])
    traj = Trajectory(ts=np.array([0.0, 1.0]), states=states, derivs=np.zeros_like(states), meta={})
    assert_arrays_bitwise_equal(traj.sample(1.0), states[-1])
    assert_arrays_bitwise_equal(traj.sample(np.array([0.5, 1.0]))[1], states[-1])


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
@pytest.mark.parametrize("case", ["riccati", "resonant", "verify-long:0", "exp-resonant:3"])
def test_remainder_table_matches_the_per_point_loop(case):
    expansion, traj, grid = _verify_run(case)
    upto = expansion.order_count()
    table = remainder_series(traj, expansion, upto, grid, None)
    assert table.shape == (upto + 1, len(grid))
    # row 0 is the solution's own norm
    assert_arrays_bitwise_equal(
        table[0], np.array([np.linalg.norm(traj.sample(t)) for t in grid])
    )
    for n in range(upto + 1):
        want = remainder_series_oracle(traj, expansion, n, grid)
        # a last-bit change of a Hermite weight moves y by an ulp of |y|
        assert np.all(abs(table[n] - want) <= 8 * EPS * table[0]), n
        assert np.mean(table[n] == want) > 0.95, n


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_remainder_table_rows_are_partial_sum_orders():
    # a trajectory whose states are exactly S_2 at its nodes: sampled at the
    # nodes, row 2 vanishes and row 1 is |order 2's term|
    expansion = expand(build_problem(_config("resonant")))
    ts = np.linspace(1.0, 6.0, 41)
    states = eval_partial_sum(expansion, 2, ts)
    traj = Trajectory(ts=ts, states=states, derivs=np.zeros_like(states), meta={})
    table = remainder_series(traj, expansion, 2, ts, None)
    np.testing.assert_array_equal(table[2], 0.0)
    second = np.abs(expansion.orders[1].term.eval(ts)[:, 0])
    np.testing.assert_allclose(table[1], second, rtol=1e-14)
    np.testing.assert_array_equal(table[0], np.abs(states[:, 0]))


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_fitted_kernel_is_added_to_partial_sums_from_its_order_on():
    # resonant.json to order 3, its trajectory sampled at its own nodes, where
    # the array sample and the scalar oracle are both the stored state: rows
    # n >= 2 hold the fitted e^{-2t} mode as a value, rows n < 2 do not
    cfg = _config("resonant")
    ver = cfg["verification"]
    spec = build_problem(cfg)
    expansion = expand(dataclasses.replace(spec, order=3))
    traj = numerics.integrate(spec, ver["y0"], ver["t_span"], ver["rel_tol"], ver["abs_tol"])
    coeffs = fit_kernel_constants(traj, expansion, 2, (10.0, 14.0))
    assert coeffs.shape == (1,)
    ts = traj.ts[::3]
    plain = remainder_series(traj, expansion, 3, ts, None)
    table = remainder_series(traj, expansion, 3, ts, kernel=(2, coeffs))
    for n in (0, 1):
        assert_arrays_bitwise_equal(table[n], plain[n])
    for n in (2, 3):
        want = remainder_series_oracle(traj, expansion, n, ts, kernel=(2, coeffs))
        assert_arrays_bitwise_equal(table[n], want)
        assert not np.array_equal(table[n], plain[n])
    # once the expansion holds, the fitted mode is most of the order-2 remainder
    late = (ts > 6.0) & (ts < 10.0)
    assert np.all(table[2][late] < 0.05 * plain[2][late])
    with pytest.raises(ValueError, match="coefficient count != kernel size"):
        remainder_series(traj, expansion, 3, ts, kernel=(2, np.zeros(2)))


# Planted decays: (mode, scale_index, the regressor at t) with grids inside
# each regressor's domain.
PLANTED = {
    "exponential": ("exponential", 0, lambda t: t, np.linspace(0.0, 15.0, 151)),
    "power": ("power", 0, np.log, np.geomspace(10.0, 1e4, 200)),
    "log": ("log", 1, lambda t: np.log(np.log(t)), np.geomspace(3.0, 1e8, 200)),
}


@pytest.mark.parametrize("name", sorted(PLANTED))
def test_fit_decay_recovers_a_planted_exponent(name):
    mode, scale_index, x, ts = PLANTED[name]
    values = 3.0 * np.exp(-1.75 * x(ts))
    fit = fit_decay(ts, values, mode, scale_index, None)
    assert fit.exponent == pytest.approx(1.75, rel=1e-10)
    assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
    # the default window is the trailing 40% of the span
    first = ts[ts >= ts[0] + 0.6 * (ts[-1] - ts[0])][0]
    assert fit.window == (first, ts[-1])
    # an explicit window fits only its own samples: plant a second exponent
    # before the middle of the grid and fit there
    mid = ts[len(ts) // 2]
    early = values * np.exp(-0.5 * (x(ts) - x(mid)))
    values2 = np.where(ts < mid, early, values)
    fit2 = fit_decay(ts, values2, mode, scale_index, window=(ts[0], ts[len(ts) // 2 - 1]))
    assert fit2.exponent == pytest.approx(2.25, rel=1e-10)
    assert fit2.window == (ts[0], ts[len(ts) // 2 - 1])


@pytest.mark.parametrize("window", [None, (25.0, 50.0)])
def test_fit_decay_drops_samples_below_the_noise_floor(window):
    # e^-t down to t = 32, then a plateau of rounding noise far below 100 ulps
    # of the first sample: only the samples above the floor are fitted
    ts = np.linspace(0.0, 50.0, 501)
    noise = 1e-17 * (1.0 + 0.5 * np.sin(7.0 * ts))
    values = np.where(ts <= 32.0, np.exp(-ts), noise)
    fit = fit_decay(ts, values, "exponential", 0, window)
    assert fit.exponent == pytest.approx(1.0, rel=1e-10)
    assert fit.window[1] == pytest.approx(31.4, abs=0.1)


def test_fit_decay_needs_three_usable_samples():
    ts = np.linspace(0.0, 10.0, 11)
    values = np.exp(-ts)
    with pytest.raises(ValueError, match="fewer than 3 usable samples"):
        fit_decay(ts, values, "exponential", 0, (8.5, 10.0))
    # zeros and samples below the floor do not count
    with pytest.raises(ValueError, match="fewer than 3 usable samples"):
        fit_decay(ts, np.where(ts < 9.0, 0.0, values), "exponential", 0, (0.0, 10.0))
    with pytest.raises(ValueError, match="fewer than 3 usable samples"):
        fit_decay(ts, np.where(ts < 2.0, values, 1e-20), "exponential", 0, (0.0, 10.0))
    assert fit_decay(ts, values, "exponential", 0, (7.5, 10.0)).window == (8.0, 10.0)
    with pytest.raises(ValueError, match="matching nonempty 1-d arrays"):
        fit_decay([], [], "exponential", 0, None)
    with pytest.raises(ValueError, match="unknown mode"):
        fit_decay(ts, values, "linear", 0, None)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_fit_decay_rejects_a_sample_that_is_not_finite(bad):
    # five bad samples inside the window: masking them out would still fit
    # exponent 2 with R^2 = 1
    ts = np.linspace(0.0, 10.0, 101)
    values = np.exp(-2.0 * ts)
    values[[70, 75, 80, 85, 90]] = bad
    with pytest.raises(ValueError, match="not finite"):
        fit_decay(ts, values, "exponential", 0, None)
    # outside the window too
    values = np.exp(-2.0 * ts)
    values[3] = bad
    with pytest.raises(ValueError, match="not finite"):
        fit_decay(ts, values, "exponential", 0, (5.0, 10.0))


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
@pytest.mark.parametrize("nodes,rtol", [("at_the_samples", 1e-10), ("dense", 1e-8)])
def test_fit_kernel_constants_recovers_planted_constants(nodes, rtol):
    # resonant.json's order 2 has one free kernel mode, e^{-2t}; a trajectory
    # that is S_2 with planted constants gives those constants back
    expansion = expand(build_problem(_config("resonant")))
    assert len(expansion.orders[1].kernel) == 1
    planted = np.array([0.37 - 0.21j])
    mode = expansion.orders[1].kernel[0]
    if nodes == "at_the_samples":
        ts = np.linspace(10.0, 14.0, 64)
        derivs = np.zeros((len(ts), 1), dtype=complex)
    else:
        ts = np.linspace(9.0, 15.0, 3001)
        derivs = sum(time_derivative(ladder_view(o.term)).eval(ts) for o in expansion.orders[:2])
        derivs = derivs + planted[0] * time_derivative(ladder_view(mode)).eval(ts)
    states = eval_partial_sum(expansion, 2, ts) + planted[0] * mode.eval(ts)
    traj = Trajectory(ts=ts, states=states, derivs=derivs, meta={})
    coeffs = fit_kernel_constants(traj, expansion, 2, (10.0, 14.0))
    # S_2 is e^{-t} in size and the mode e^{-2t}, so the subtraction loses
    # about 14 bits at t = 10; dense nodes add the Hermite interpolation error
    np.testing.assert_allclose(coeffs, planted, rtol=rtol)
    # order 1 has no free mode, and the window must lie inside the span
    assert fit_kernel_constants(traj, expansion, 1, (10.0, 14.0)).shape == (0,)
    with pytest.raises(ValueError, match="inside the trajectory span"):
        fit_kernel_constants(traj, expansion, 2, (5.0, 14.0))
