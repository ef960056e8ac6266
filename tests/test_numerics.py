import copy
import json
from pathlib import Path

import numpy as np
import pytest
import scipy.linalg
import scipy.special

from helpers import assert_arrays_bitwise_equal, bench_module, integrate_rhs_oracle, rhs_oracle
from odexpand import LogPowerSum, numerics
from odexpand.cli import build_problem
from odexpand.numerics import _kronecker_directions, decay_envelope_constant, matrix_exp_norm

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
    assert decay_envelope_constant(A) == pytest.approx(expected, rel=1e-13)


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
# integration: the forcing is evaluated once per step at all six stage times


def _config(case: str) -> dict:
    """A shipped config by name, a benchmark pool problem as 'workload:index',
    or 'two-records': verify-long problem 0 with a second, depth-1 forcing
    record, so each stage sums two records in order."""
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
    if ":" in case:
        workload, index = case.split(":")
        return bench_module("workloads").problem(workload, int(index)).config
    return json.loads((CONFIGS / f"{case}.json").read_text())


@pytest.mark.parametrize(
    "case",
    [
        "riccati",
        "resonant",
        "verify-long:0",
        "verify-long:1",
        "exp-resonant:0",
        "exp-resonant:3",
        "exp-resonant:15",
        "two-records",
    ],
)
def test_trajectory_matches_the_per_stage_loop_bitwise(case):
    cfg = _config(case)
    spec = build_problem(cfg)
    assert case != "two-records" or len(spec.forcing) == 2
    ver = cfg["verification"]
    y0 = [complex(x) for x in ver["y0"]]
    args = (y0, ver["t_span"], ver["rel_tol"], ver["abs_tol"])
    got = numerics.integrate(spec, *args)
    want = integrate_rhs_oracle(rhs_oracle(spec), *args)
    assert got.meta == want.meta
    for name in ("ts", "states", "derivs"):
        assert_arrays_bitwise_equal(getattr(got, name), getattr(want, name))
    assert got.ts[-1] == ver["t_span"][1]


def test_integrate_calls_the_hooks_it_looks_up(monkeypatch):
    # the field comes from numerics.make_rhs and the run from
    # numerics.integrate_rhs, each looked up when integrate runs
    spec = build_problem(_config("two-records"))
    ver = _config("two-records")["verification"]
    field_calls, forcing_lengths, runs = [], [], []
    make_rhs, integrate_rhs = numerics.make_rhs, numerics.integrate_rhs
    eval_ = LogPowerSum.eval

    def counted_make_rhs(spec):
        field = make_rhs(spec)
        return lambda y: field_calls.append(1) or field(y)

    def counted_integrate_rhs(*args):
        runs.append(integrate_rhs(*args))
        return runs[-1]

    def counted_eval(self, t):
        forcing_lengths.append(len(t))
        return eval_(self, t)

    monkeypatch.setattr(numerics, "make_rhs", counted_make_rhs)
    monkeypatch.setattr(numerics, "integrate_rhs", counted_integrate_rhs)
    monkeypatch.setattr(LogPowerSum, "eval", counted_eval)
    traj = numerics.integrate(spec, ver["y0"], (10.0, 60.0), ver["rel_tol"], ver["abs_tol"])
    assert runs == [traj]
    attempts = traj.meta["steps"] + traj.meta["rejected"]
    assert len(field_calls) == traj.meta["rhs_evals"] == 2 + 6 * attempts
    # one eval per record per forcing call
    assert forcing_lengths == [n for n in [1, 1] + [6] * attempts for _ in range(2)]
