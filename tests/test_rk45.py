"""Adaptive Runge-Kutta integration against closed-form trajectories."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import odexpand
from helpers import integrate_rhs_oracle
from odexpand import StepUnderflow, integrate_rhs


def unforced(ts):
    return ()


def logistic_field(y):
    return -y + y * y


def logistic_exact(t, y0=0.5):
    # y' = -y + y^2 solved through u = 1/y: u' = u - 1
    u0 = 1.0 / y0
    return 1.0 / (1.0 + (u0 - 1.0) * math.exp(t))


def test_linear_decay_accuracy():
    traj = integrate_rhs(lambda y: -y, unforced, np.array([1.0]), (0.0, 5.0))
    err = abs(traj.sample(5.0)[0] - math.exp(-5.0))
    assert err < 1e-8


def test_logistic_against_closed_form():
    traj = integrate_rhs(logistic_field, unforced, np.array([0.5]), (0.0, 6.0))
    for t in np.linspace(0.0, 6.0, 25):
        assert abs(traj.sample(t)[0] - logistic_exact(t)) < 1e-7


def test_finite_time_blowup_raises():
    # y0 = 10 blows up at t = ln(10/9), far inside the requested span
    with pytest.raises(StepUnderflow, match="step size underflow at t ="):
        integrate_rhs(logistic_field, unforced, np.array([10.0]), (0.0, 5.0))


def test_error_decreases_with_tolerance():
    tols = [1e-3, 1e-4, 6.25e-6, 3.90625e-7, 2.44140625e-8]
    errs = []
    for tol in tols:
        traj = integrate_rhs(
            logistic_field,
            unforced,
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
    traj = integrate_rhs(lambda y: -y, unforced, np.array([1.0]), (0.0, 1.0))
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.sample(1.5)
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.sample(-0.1)
    with pytest.raises(ValueError, match="t_span must be increasing"):
        integrate_rhs(lambda y: -y, unforced, np.array([1.0]), (1.0, 0.0))


def test_nonfinite_initial_rhs():
    with pytest.raises(ValueError, match="right-hand side not finite at the initial point"):
        integrate_rhs(lambda y: np.array([math.inf]), unforced, np.array([1.0]), (0.0, 1.0))
    with pytest.raises(ValueError, match="right-hand side not finite at the initial point"):
        integrate_rhs(
            lambda y: -y, lambda ts: [np.full((len(ts), 1), math.nan)], np.array([1.0]), (0.0, 1.0)
        )


def test_meta_counters():
    traj = integrate_rhs(lambda y: -y, unforced, np.array([1.0]), (0.0, 3.0))
    for key in ("steps", "rejected", "rhs_evals", "rel_tol", "abs_tol"):
        assert key in traj.meta
    assert traj.meta["steps"] == len(traj.ts) - 1
    assert traj.meta["rhs_evals"] > traj.meta["steps"]


def test_sample_hits_nodes_exactly():
    traj = integrate_rhs(logistic_field, unforced, np.array([0.5]), (0.0, 4.0))
    k = len(traj.ts) // 2
    np.testing.assert_array_equal(traj.sample(traj.ts[k]), traj.states[k])
    np.testing.assert_array_equal(traj.sample(traj.t1), traj.states[-1])


def test_complex_state_integration():
    lam = -1.0 + 1.0j
    traj = integrate_rhs(lambda y: lam * y, unforced, np.array([1.0 + 0.0j]), (0.0, 6.0))
    assert np.iscomplexobj(traj.states)
    for t in (1.0, 3.0, 6.0):
        assert abs(traj.sample(t)[0] - np.exp(lam * t)) < 1e-8


class Counting:
    """Wraps a field or a forcing and records each call's argument and finiteness."""

    def __init__(self, f):
        self.f = f
        self.args = []
        self.finite = []

    def __call__(self, x):
        out = self.f(x)
        self.args.append(np.array(x, copy=True))
        self.finite.append(bool(np.isfinite(np.asarray(out)).all()))
        return out

    @property
    def calls(self) -> int:
        return len(self.args)


def decaying_forcing(ts):
    # two records, so each stage sums the records in order
    return [0.3 * np.exp(-ts)[:, None], (0.1j / (1.0 + ts))[:, None]]


def test_rhs_evals_counts_every_call():
    # one field call and one forcing call at the start point, the same for
    # the step guess, then six field calls and one forcing call for the six
    # stage times per attempted step; FSAL reuses the seventh stage
    field, forcing = Counting(logistic_field), Counting(decaying_forcing)
    traj = integrate_rhs(field, forcing, np.array([0.5]), (0.0, 6.0), rel_tol=1e-9, abs_tol=1e-12)
    m = traj.meta
    attempts = m["steps"] + m["rejected"]
    assert all(field.finite) and all(forcing.finite)
    assert m["rhs_evals"] == field.calls == 2 + 6 * attempts
    assert forcing.calls == 2 + attempts
    assert [len(ts) for ts in forcing.args] == [1, 1] + [6] * attempts


def test_stored_derivatives_are_the_rhs_at_the_stored_states():
    traj = integrate_rhs(
        logistic_field, unforced, np.array([0.5 + 0.1j, 0.2 - 0.3j]), (0.0, 6.0)
    )
    for y, f in zip(traj.states, traj.derivs):
        np.testing.assert_allclose(f, logistic_field(y), rtol=1e-14, atol=0.0)
    traj = integrate_rhs(logistic_field, decaying_forcing, np.array([0.5 + 0.1j]), (0.0, 6.0))
    records = decaying_forcing(traj.ts)
    for i, (y, f) in enumerate(zip(traj.states, traj.derivs)):
        want = logistic_field(y) + records[0][i] + records[1][i]
        np.testing.assert_allclose(f, want, rtol=1e-14, atol=0.0)


def test_complex_components_of_different_scales():
    # y' = 3i (y - 1) from y0 = 1 + 1e-8 i: y = 1 + 1e-8 i e^{3it}, a real
    # part near 1 and an imaginary part of amplitude 1e-8.  The error norm
    # scales each real component on its own, so the small part is
    # resolved too (a norm scaled by the largest component leaves it
    # about 2e-2 of its amplitude off).
    y0 = np.array([1.0 + 1e-8j])
    traj = integrate_rhs(
        lambda y: 3j * (y - 1.0), unforced, y0, (0.0, 10.0), rel_tol=1e-10, abs_tol=1e-24
    )
    exact = 1.0 + (y0 - 1.0) * np.exp(3j * traj.ts[:, None])
    assert np.abs(traj.states.real - exact.real).max() < 1e-12
    assert np.abs(traj.states.imag - exact.imag).max() < 1e-6 * 1e-8


def test_nonfinite_stage_rejects_and_quarters_the_step():
    # y' = -y, defined only for Re y > 0: at a loose tolerance the steps
    # grow until a stage input crosses zero, and that step is retried
    def guarded_decay(y):
        return -y if y.real[0] > 0 else np.array([np.nan])

    field, forcing = Counting(guarded_decay), Counting(unforced)
    traj = integrate_rhs(field, forcing, np.array([1.0]), (0.0, 40.0), rel_tol=1e-6, abs_tol=1e-12)
    assert traj.meta["rejected"] > 0
    assert traj.meta["rhs_evals"] == field.calls
    # after the two start-up calls each attempt runs stages 2..7 at
    # t + h/5, ..., t + h; an attempt with a non-finite stage is retried
    # from the same t with h/4
    ts = np.array(forcing.args[2:])
    bad = ~np.array(field.finite[2:]).reshape(-1, 6).all(axis=1)
    assert ts.shape == bad.shape + (6,)
    h = (ts[:, 5] - ts[:, 0]) / 0.8
    start = ts[:, 0] - h / 5
    assert bad.any() and not bad[-1]
    retry = np.flatnonzero(bad) + 1
    np.testing.assert_allclose(start[retry], start[retry - 1], rtol=1e-12)
    np.testing.assert_allclose(h[retry], h[retry - 1] / 4, rtol=1e-9)
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-traj.ts), rtol=1e-5, atol=1e-12)


def test_last_step_lands_exactly_on_the_end_of_the_span():
    # With a zero right-hand side the step grows fivefold per step until the
    # end clips it.  When the clipped step starts below t1/2, t + (t1 - t)
    # can round one ulp short of t1; stepping on from there would need a
    # one-ulp step and raise StepUnderflow.
    rng = np.random.default_rng(20260)
    spans = np.column_stack([rng.uniform(0.0, 1.0, 2000), rng.uniform(1.0, 1000.0, 2000)])
    for t0, t1 in spans.tolist():
        traj = integrate_rhs(np.zeros_like, unforced, np.array([0.3]), (t0, t1))
        assert traj.ts[-1] == t1
        assert np.all(np.diff(traj.ts) > 0)
    # the sweep does reach such spans: the loop that adds h to the last step fails on one
    for t0, t1 in spans.tolist():
        try:
            integrate_rhs_oracle(lambda t, y: np.zeros_like(y), np.array([0.3]), (t0, t1))
        except StepUnderflow:
            break
    else:
        pytest.fail("no span in the sweep rounds short of its end")


# Each case ran forever before the tolerances were checked: the starting-step
# guess divided 0 by 0, every attempt with h = NaN was rejected, and the step
# budget counts accepted steps only.  A subprocess with a timeout keeps a
# relapse from hanging the suite.
HANGING_CALL = (
    "import numpy as np\n"
    "from odexpand import StepUnderflow, integrate_rhs, rk45\n"
    "{setup}"
    "try:\n"
    "    integrate_rhs(lambda y: -2*y + y*y, lambda ts: [np.exp(-ts)[:, None]], [0.01],\n"
    "                  (0.0, 14.0), {tols})\n"
    "except (ValueError, StepUnderflow) as e:\n"
    "    print(type(e).__name__)\n"
)


@pytest.mark.parametrize(
    "setup, tols, raised",
    [
        ("", "rel_tol=1e-11, abs_tol=0.0", "ValueError"),
        ("", 'rel_tol=float("nan")', "ValueError"),
        ("", 'abs_tol=float("inf")', "ValueError"),
        ("", "rel_tol=-1e-10", "ValueError"),
        # a NaN step from any source stops the loop
        ("rk45._initial_step = lambda *args: float('nan')\n", "rel_tol=1e-10", "StepUnderflow"),
    ],
)
def test_bad_tolerances_and_nan_steps_raise_instead_of_looping(setup, tols, raised):
    src = Path(odexpand.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", HANGING_CALL.format(setup=setup, tols=tols)],
        capture_output=True, text=True, timeout=30, env=env,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == raised
