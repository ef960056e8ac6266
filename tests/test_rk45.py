"""Adaptive Runge-Kutta integration against closed-form trajectories."""

import math

import numpy as np
import pytest

from odexpand import StepUnderflow, integrate_rhs


def logistic_rhs(t, y):
    return -y + y * y


def logistic_exact(t, y0=0.5):
    # y' = -y + y^2 solved through u = 1/y: u' = u - 1
    u0 = 1.0 / y0
    return 1.0 / (1.0 + (u0 - 1.0) * math.exp(t))


def test_linear_decay_accuracy():
    traj = integrate_rhs(lambda t, y: -y, np.array([1.0]), (0.0, 5.0))
    err = abs(traj.sample(5.0)[0] - math.exp(-5.0))
    assert err < 1e-8


def test_logistic_against_closed_form():
    traj = integrate_rhs(logistic_rhs, np.array([0.5]), (0.0, 6.0))
    for t in np.linspace(0.0, 6.0, 25):
        assert abs(traj.sample(t)[0] - logistic_exact(t)) < 1e-7


def test_finite_time_blowup_raises():
    # y0 = 10 blows up at t = ln(10/9), far inside the requested span
    with pytest.raises(StepUnderflow, match="step size underflow at t ="):
        integrate_rhs(logistic_rhs, np.array([10.0]), (0.0, 5.0))


def test_error_decreases_with_tolerance():
    tols = [1e-3, 1e-4, 6.25e-6, 3.90625e-7, 2.44140625e-8]
    errs = []
    for tol in tols:
        traj = integrate_rhs(
            logistic_rhs,
            np.array([0.5 + 0.0j]),
            (0.0, 5.0),
            rel_tol=tol,
            abs_tol=tol * 1e-2,
        )
        errs.append(abs(traj.states[-1][0] - logistic_exact(5.0)))
    assert all(b < a for a, b in zip(errs, errs[1:]))
    # successive 16x tolerance drops must buy at least 4x accuracy
    for a, b in zip(errs[1:], errs[2:]):
        assert a / b >= 4.0


def test_sample_outside_span_and_bad_span():
    traj = integrate_rhs(lambda t, y: -y, np.array([1.0]), (0.0, 1.0))
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.sample(1.5)
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.sample(-0.1)
    with pytest.raises(ValueError, match="t_span must be increasing"):
        integrate_rhs(lambda t, y: -y, np.array([1.0]), (1.0, 0.0))


def test_nonfinite_initial_rhs():
    with pytest.raises(ValueError, match="right-hand side not finite at the initial point"):
        integrate_rhs(lambda t, y: np.array([math.inf]), np.array([1.0]), (0.0, 1.0))


def test_meta_counters():
    traj = integrate_rhs(lambda t, y: -y, np.array([1.0]), (0.0, 3.0))
    for key in ("steps", "rejected", "rhs_evals", "rel_tol", "abs_tol"):
        assert key in traj.meta
    assert traj.meta["steps"] == len(traj.ts) - 1
    assert traj.meta["rhs_evals"] > traj.meta["steps"]


def test_sample_hits_nodes_exactly():
    traj = integrate_rhs(logistic_rhs, np.array([0.5]), (0.0, 4.0))
    k = len(traj.ts) // 2
    np.testing.assert_array_equal(traj.sample(traj.ts[k]), traj.states[k])
    np.testing.assert_array_equal(traj.sample(traj.t1), traj.states[-1])


def test_complex_state_integration():
    lam = -1.0 + 1.0j
    traj = integrate_rhs(lambda t, y: lam * y, np.array([1.0 + 0.0j]), (0.0, 6.0))
    assert np.iscomplexobj(traj.states)
    for t in (1.0, 3.0, 6.0):
        assert abs(traj.sample(t)[0] - np.exp(lam * t)) < 1e-8


class CountingRhs:
    """Wraps a right-hand side and records the time and finiteness of each call."""

    def __init__(self, f):
        self.f = f
        self.ts = []
        self.finite = []

    def __call__(self, t, y):
        out = self.f(t, y)
        self.ts.append(t)
        self.finite.append(bool(np.all(np.isfinite(out))))
        return out

    @property
    def calls(self) -> int:
        return len(self.ts)


def test_rhs_evals_counts_every_call():
    # two calls before the first step (start point and step guess), then
    # six stages per attempted step; FSAL reuses the seventh
    rhs = CountingRhs(logistic_rhs)
    traj = integrate_rhs(rhs, np.array([0.5]), (0.0, 6.0), rel_tol=1e-9, abs_tol=1e-12)
    m = traj.meta
    assert all(rhs.finite)
    assert m["rhs_evals"] == rhs.calls == 2 + 6 * (m["steps"] + m["rejected"])


def test_stored_derivatives_are_the_rhs_at_the_stored_states():
    traj = integrate_rhs(logistic_rhs, np.array([0.5 + 0.1j, 0.2 - 0.3j]), (0.0, 6.0))
    for t, y, f in zip(traj.ts, traj.states, traj.derivs):
        np.testing.assert_allclose(f, logistic_rhs(t, y), rtol=1e-14, atol=0.0)


def test_complex_components_of_different_scales():
    # y' = 3i (y - 1) from y0 = 1 + 1e-8 i: y = 1 + 1e-8 i e^{3it}, a real
    # part near 1 and an imaginary part of amplitude 1e-8.  The error norm
    # scales each real component on its own, so the small part is
    # resolved too (a norm scaled by the largest component leaves it
    # about 2e-2 of its amplitude off).
    y0 = np.array([1.0 + 1e-8j])
    traj = integrate_rhs(
        lambda t, y: 3j * (y - 1.0), y0, (0.0, 10.0), rel_tol=1e-10, abs_tol=1e-24
    )
    exact = 1.0 + (y0 - 1.0) * np.exp(3j * traj.ts[:, None])
    assert np.abs(traj.states.real - exact.real).max() < 1e-12
    assert np.abs(traj.states.imag - exact.imag).max() < 1e-6 * 1e-8


def test_nonfinite_stage_rejects_and_quarters_the_step():
    # y' = -y, defined only for Re y > 0: at a loose tolerance the steps
    # grow until a stage input crosses zero, and that step is retried
    def guarded_decay(t, y):
        return -y if y.real[0] > 0 else np.array([np.nan])

    rhs = CountingRhs(guarded_decay)
    traj = integrate_rhs(rhs, np.array([1.0]), (0.0, 40.0), rel_tol=1e-6, abs_tol=1e-12)
    assert traj.meta["rejected"] > 0
    assert traj.meta["rhs_evals"] == rhs.calls
    # after the two start-up calls each attempt runs stages 2..7 at
    # t + h/5, ..., t + h; an attempt with a non-finite stage is retried
    # from the same t with h/4
    ts = np.array(rhs.ts[2:]).reshape(-1, 6)
    bad = ~np.array(rhs.finite[2:]).reshape(-1, 6).all(axis=1)
    h = (ts[:, 5] - ts[:, 0]) / 0.8
    start = ts[:, 0] - h / 5
    assert bad.any() and not bad[-1]
    retry = np.flatnonzero(bad) + 1
    np.testing.assert_allclose(start[retry], start[retry - 1], rtol=1e-12)
    np.testing.assert_allclose(h[retry], h[retry - 1] / 4, rtol=1e-9)
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-traj.ts), rtol=1e-5, atol=1e-12)
