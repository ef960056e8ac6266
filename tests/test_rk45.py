"""Adaptive Runge-Kutta integration against closed-form trajectories."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import odexpand
from helpers import integrate_rhs_oracle, integrate_rhs_scalar_oracle
from odexpand import StepUnderflow, integrate_rhs


def on_lists(f):
    """rhs(t, y) = f(y) for a field f written on numpy arrays, called as
    ``integrate_rhs`` calls rhs: with a float and a list of Python complex
    numbers, returning a list."""

    def rhs(t, y):
        assert type(t) is float
        assert type(y) is list and all(type(v) is complex for v in y)
        return np.asarray(f(np.array(y))).tolist()

    return rhs


def forced(rhs, *records):
    """rhs(t, y) plus each record(t), a list of n numbers, added in order."""

    def total(t, y):
        k = rhs(t, y)
        for record in records:
            k = [a + b for a, b in zip(k, record(t))]
        return k

    return total


def logistic_field(y):
    return -y + y * y


def logistic_exact(t, y0=0.5):
    # y' = -y + y^2 solved through u = 1/y: u' = u - 1
    u0 = 1.0 / y0
    return 1.0 / (1.0 + (u0 - 1.0) * math.exp(t))


def test_linear_decay_accuracy():
    traj = integrate_rhs(on_lists(lambda y: -y), np.array([1.0]), (0.0, 5.0), 1e-10, 1e-12)
    err = abs(traj.sample(5.0)[0] - math.exp(-5.0))
    assert err < 1e-8


def test_logistic_against_closed_form():
    traj = integrate_rhs(on_lists(logistic_field), np.array([0.5]), (0.0, 6.0), 1e-10, 1e-12)
    for t in np.linspace(0.0, 6.0, 25):
        assert abs(traj.sample(t)[0] - logistic_exact(t)) < 1e-7


def test_finite_time_blowup_raises():
    # y0 = 10 blows up at t = ln(10/9), far inside the requested span
    with pytest.raises(StepUnderflow, match="step size underflow at t ="):
        integrate_rhs(on_lists(logistic_field), np.array([10.0]), (0.0, 5.0), 1e-10, 1e-12)


def test_error_decreases_with_tolerance():
    tols = [1e-3, 1e-4, 6.25e-6, 3.90625e-7, 2.44140625e-8]
    errs = []
    for tol in tols:
        traj = integrate_rhs(
            on_lists(logistic_field),
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
    traj = integrate_rhs(on_lists(lambda y: -y), np.array([1.0]), (0.0, 1.0), 1e-10, 1e-12)
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.sample(1.5)
    with pytest.raises(ValueError, match="outside the integrated span"):
        traj.sample(-0.1)
    with pytest.raises(ValueError, match="t_span must be increasing"):
        integrate_rhs(on_lists(lambda y: -y), np.array([1.0]), (1.0, 0.0), 1e-10, 1e-12)


@pytest.mark.parametrize("t_span", [(0.0, math.inf), (-math.inf, 0.0), (0.0, math.nan)])
def test_a_span_with_an_infinite_or_nan_end_raises_at_once(t_span):
    # (0, inf) passes t1 > t0 and would spend the whole step budget
    calls = []
    with pytest.raises(ValueError, match="t_span must be finite"):
        integrate_rhs(lambda t, y: calls.append(1) or [-v for v in y], [1.0], t_span, 1e-10, 1e-12)
    assert calls == []


def test_nonfinite_initial_rhs():
    with pytest.raises(ValueError, match="right-hand side not finite at the initial point"):
        integrate_rhs(lambda t, y: [math.inf], np.array([1.0]), (0.0, 1.0), 1e-10, 1e-12)
    with pytest.raises(ValueError, match="right-hand side not finite at the initial point"):
        integrate_rhs(
            forced(on_lists(lambda y: -y), lambda t: [math.nan]), np.array([1.0]), (0.0, 1.0),
            1e-10, 1e-12,
        )


def test_meta_counters():
    traj = integrate_rhs(on_lists(lambda y: -y), np.array([1.0]), (0.0, 3.0), 1e-10, 1e-12)
    for key in ("steps", "rejected", "rhs_evals", "rel_tol", "abs_tol"):
        assert key in traj.meta
    assert traj.meta["steps"] == len(traj.ts) - 1
    assert traj.meta["rhs_evals"] > traj.meta["steps"]


def test_sample_hits_nodes_exactly():
    traj = integrate_rhs(on_lists(logistic_field), np.array([0.5]), (0.0, 4.0), 1e-10, 1e-12)
    k = len(traj.ts) // 2
    np.testing.assert_array_equal(traj.sample(traj.ts[k]), traj.states[k])
    np.testing.assert_array_equal(traj.sample(traj.t1), traj.states[-1])


def test_complex_state_integration():
    lam = -1.0 + 1.0j
    traj = integrate_rhs(on_lists(lambda y: lam * y), np.array([1.0 + 0.0j]), (0.0, 6.0), 1e-10, 1e-12)
    assert np.iscomplexobj(traj.states)
    for t in (1.0, 3.0, 6.0):
        assert abs(traj.sample(t)[0] - np.exp(lam * t)) < 1e-8


class Counting:
    """Wraps an rhs and records each call's time, state and finiteness."""

    def __init__(self, rhs):
        self.rhs = rhs
        self.ts = []
        self.ys = []
        self.finite = []

    def __call__(self, t, y):
        out = self.rhs(t, y)
        self.ts.append(t)
        self.ys.append(np.array(y, copy=True))
        self.finite.append(bool(np.isfinite(np.asarray(out)).all()))
        return out

    @property
    def calls(self) -> int:
        return len(self.ts)


def decaying_records():
    # two records, so each stage sums the records in order
    return (lambda t: [0.3 * math.exp(-t)], lambda t: [0.1j / (1.0 + t)])


C_STAGES = (1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)


def test_rhs_evals_counts_every_call():
    # one call at the start point and one for the step guess, then six
    # calls per attempted step, at t + c_i h; FSAL reuses the seventh stage
    rhs = Counting(forced(on_lists(logistic_field), *decaying_records()))
    traj = integrate_rhs(rhs, np.array([0.5]), (0.0, 6.0), rel_tol=1e-9, abs_tol=1e-12)
    m = traj.meta
    attempts = m["steps"] + m["rejected"]
    assert all(rhs.finite)
    assert m["rhs_evals"] == rhs.calls == 2 + 6 * attempts
    assert rhs.ts[0] == 0.0 and rhs.ts[1] > 0.0
    stages = np.array(rhs.ts[2:]).reshape(attempts, 6)
    # every attempt starts at an accepted point; its step is h
    h = (stages[:, 4] - stages[:, 0]) / 0.8
    start = stages[:, 0] - h / 5
    np.testing.assert_allclose(stages, start[:, None] + np.outer(h, C_STAGES), rtol=1e-13)
    assert set(np.round(start, 9)) <= set(np.round(traj.ts, 9))
    # stages 6 and 7 both sit at t + h, and the accepted points are such ends
    np.testing.assert_array_equal(stages[:, 4], stages[:, 5])
    assert set(traj.ts[1:]) <= set(stages[:, 5])


def test_stored_derivatives_are_the_rhs_at_the_stored_states():
    traj = integrate_rhs(
        on_lists(logistic_field), np.array([0.5 + 0.1j, 0.2 - 0.3j]), (0.0, 6.0), 1e-10, 1e-12
    )
    for y, f in zip(traj.states, traj.derivs):
        np.testing.assert_allclose(f, logistic_field(y), rtol=1e-14, atol=0.0)
    records = decaying_records()
    traj = integrate_rhs(
        forced(on_lists(logistic_field), *records), np.array([0.5 + 0.1j]), (0.0, 6.0), 1e-10, 1e-12
    )
    for t, y, f in zip(traj.ts.tolist(), traj.states, traj.derivs):
        want = logistic_field(y) + records[0](t) + records[1](t)
        np.testing.assert_allclose(f, want, rtol=1e-14, atol=0.0)


def real_pair_field(y):
    # a real problem: from real data every imaginary part stays exactly 0
    a, b = y
    return [-a + b * b, -2.0 * b + 0.5 * a * b]


REAL_PAIR_RECORDS = (
    lambda t: [0.3 * math.exp(-t), -0.5 * 0.3 * math.exp(-t)],
    lambda t: [0.0, 0.2 / (1.0 + t)],
)


@pytest.mark.parametrize("records", [(), REAL_PAIR_RECORDS], ids=["unforced", "two-records"])
def test_a_field_of_python_floats_gives_the_complex_fields_trajectory(records):
    # rhs may return real numbers; each stage then uses them as they are
    def float_field(t, y):
        return [v.real for v in real_pair_field(y)]

    args = ([0.4, -0.3], (0.0, 8.0))
    want = integrate_rhs(forced(lambda t, y: real_pair_field(y), *records), *args, 1e-10, 1e-13)
    got = integrate_rhs(forced(float_field, *records), *args, 1e-10, 1e-13)
    assert not np.iscomplexobj(np.asarray(float_field(0.0, [0.4 + 0j, -0.3 + 0j])))
    assert got.meta == want.meta and want.meta["steps"] > 10
    for name in ("ts", "states", "derivs"):
        np.testing.assert_array_equal(getattr(got, name), getattr(want, name))


def test_complex_components_of_different_scales():
    # y' = 3i (y - 1) from y0 = 1 + 1e-8 i: y = 1 + 1e-8 i e^{3it}, a real
    # part near 1 and an imaginary part of amplitude 1e-8.  The error norm
    # scales each real component on its own, so the small part is
    # resolved too (a norm scaled by the largest component leaves it
    # about 2e-2 of its amplitude off).
    y0 = np.array([1.0 + 1e-8j])
    traj = integrate_rhs(
        on_lists(lambda y: 3j * (y - 1.0)), y0, (0.0, 10.0), rel_tol=1e-10, abs_tol=1e-24
    )
    exact = 1.0 + (y0 - 1.0) * np.exp(3j * traj.ts[:, None])
    assert np.abs(traj.states.real - exact.real).max() < 1e-12
    assert np.abs(traj.states.imag - exact.imag).max() < 1e-6 * 1e-8


def test_nonfinite_stage_rejects_and_quarters_the_step():
    # y' = -y, defined only for Re y > 0: at a loose tolerance the steps
    # grow until a stage input crosses zero, and that step is retried
    def guarded_decay(y):
        return -y if y.real[0] > 0 else np.array([np.nan])

    rhs = Counting(on_lists(guarded_decay))
    traj = integrate_rhs(rhs, np.array([1.0]), (0.0, 40.0), rel_tol=1e-6, abs_tol=1e-12)
    assert traj.meta["rejected"] > 0
    assert traj.meta["rhs_evals"] == rhs.calls
    # after the two start-up calls each attempt runs stages 2..7 at
    # t + h/5, ..., t + h from the last accepted point t; the first
    # non-finite stage ends the attempt, and it is retried with h/4
    pos, k, hs, bad = 2, 0, [], []
    while pos < rhs.calls:
        run = rhs.finite[pos : pos + 6]
        ended = run.index(False) + 1 if False in run else 6
        hs.append((rhs.ts[pos] - traj.ts[k]) * 5)
        bad.append(False in run)
        if not bad[-1]:
            assert rhs.ts[pos + 4] == rhs.ts[pos + 5]
            if k + 1 < len(traj.ts) and math.isclose(rhs.ts[pos + 5], traj.ts[k + 1]):
                k += 1
        pos += ended
    assert pos == rhs.calls  # no call after a non-finite stage
    assert k == len(traj.ts) - 1
    hs, bad = np.array(hs), np.array(bad)
    assert bad.any() and not bad[-1]
    retry = np.flatnonzero(bad) + 1
    np.testing.assert_allclose(hs[retry], hs[retry - 1] / 4, rtol=1e-9)
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-traj.ts), rtol=1e-5, atol=1e-12)


def nan_on_second_call():
    """y' = -y, except that the second call (the starting guess's trial
    point) returns NaN."""
    calls = []

    def rhs(t, y):
        calls.append(1)
        return [complex("nan")] if len(calls) == 2 else [-v for v in y]

    return rhs


def test_nonfinite_trial_derivative_starts_with_a_quarter_of_the_trial_step():
    # the starting guess evaluates rhs once at t0 + h0; a NaN there
    # must not leave the guess to d1 alone, and the run starts as a
    # non-finite stage would retry it: with h0 / 4
    traj = integrate_rhs(nan_on_second_call(), [1.0], (0.0, 1.0), 1e-10, 1e-12)
    # d0 = d1 = 1 / (1e-12 + 1e-10), so the trial step h0 is 0.01
    assert traj.ts[1] - traj.ts[0] == 0.25 * 0.01
    np.testing.assert_allclose(traj.states[:, 0], np.exp(-traj.ts), rtol=1e-9)
    # the scalar oracle follows the same rule
    want = integrate_rhs_scalar_oracle(nan_on_second_call(), [1.0], (0.0, 1.0))
    np.testing.assert_array_equal(want.ts, traj.ts)


def test_last_step_lands_exactly_on_the_end_of_the_span():
    # With a zero right-hand side the step grows fivefold per step until the
    # end clips it.  When the clipped step starts below t1/2, t + (t1 - t)
    # can round one ulp short of t1; stepping on from there would need a
    # one-ulp step and raise StepUnderflow.
    rng = np.random.default_rng(20260)
    spans = np.column_stack([rng.uniform(0.0, 1.0, 2000), rng.uniform(1.0, 1000.0, 2000)])
    for t0, t1 in spans.tolist():
        traj = integrate_rhs(on_lists(np.zeros_like), np.array([0.3]), (t0, t1), 1e-10, 1e-12)
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
    "    integrate_rhs(lambda t, y: [-2*v + v*v + np.exp(-t) for v in y], [0.01],\n"
    "                  (0.0, 14.0), {tols})\n"
    "except (ValueError, StepUnderflow) as e:\n"
    "    print(type(e).__name__)\n"
)


@pytest.mark.parametrize(
    "setup, tols, raised",
    [
        ("", "rel_tol=1e-11, abs_tol=0.0", "ValueError"),
        ("", 'rel_tol=float("nan"), abs_tol=1e-12', "ValueError"),
        ("", 'rel_tol=1e-10, abs_tol=float("inf")', "ValueError"),
        ("", "rel_tol=-1e-10, abs_tol=1e-12", "ValueError"),
        # a NaN step from any source stops the loop
        ("rk45._initial_step = lambda *args: float('nan')\n", "rel_tol=1e-10, abs_tol=1e-12", "StepUnderflow"),
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
