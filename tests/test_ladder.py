"""Iterated exponentials and logarithms, the log-ladder evaluator, domain gates."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from odexpand import exp_zero, iter_exp, iter_log, ladder_eval

E = math.e


def test_iter_exp_small_cases():
    assert iter_exp(0, 0.0) == 0.0
    assert iter_exp(1, 0.0) == 1.0
    assert iter_exp(2, 0.0) == pytest.approx(E)
    assert iter_exp(3, 0.0) == pytest.approx(E**E)
    assert iter_exp(1, 2.5) == pytest.approx(math.exp(2.5))


def test_iter_log_small_cases():
    assert iter_log(0, 7.0) == 7.0
    assert iter_log(1, E) == pytest.approx(1.0)
    assert iter_log(2, E**E) == pytest.approx(1.0)
    # m = -1 climbs the ladder instead of descending it
    assert iter_log(-1, 2.0) == pytest.approx(math.exp(2.0))


def test_iter_log_domain_error_message():
    with pytest.raises(ValueError, match=r"iter_log\(1, 0\.0\) outside its domain"):
        iter_log(1, 0.0)
    with pytest.raises(ValueError):
        iter_log(2, 1.0)  # ln(1) = 0, second log undefined
    # negative intermediate values are fine as long as no log sees them
    assert iter_log(2, 2.0) == pytest.approx(math.log(math.log(2.0)))


def test_exp_zero_tower():
    assert exp_zero(0) == 0.0
    assert exp_zero(1) == 1.0
    assert exp_zero(2) == pytest.approx(E)
    assert exp_zero(3) == pytest.approx(E**E)
    assert exp_zero(4) == pytest.approx(3814279.1, rel=1e-6)
    for m in range(4):
        assert exp_zero(m + 1) == pytest.approx(math.exp(exp_zero(m)))


@given(st.integers(0, 3), st.floats(0.1, 12.0))
@settings(max_examples=80, deadline=None)
def test_iter_log_inverts_iter_exp(m, t):
    up = iter_exp(m, t)
    if math.isinf(up):
        return
    assert iter_log(m, up) == pytest.approx(t, rel=1e-9)


def test_ladder_point_depth_one_at_e():
    # entries are the logs of exp(t), t, ln t: t, ln t, ln ln t
    logs = ladder_eval(1, E)
    assert logs.shape == (3,)
    assert logs[0] == E
    assert logs[1] == pytest.approx(1.0)
    assert logs[2] == pytest.approx(0.0, abs=1e-15)
    assert np.exp(logs) == pytest.approx((E**E, E, 1.0))


def test_ladder_point_depth_zero():
    logs = ladder_eval(0, 3.0)
    assert logs.tolist() == [3.0, math.log(3.0)]
    assert np.exp(logs) == pytest.approx((math.exp(3.0), 3.0))


def test_ladder_eval_needs_positive_components():
    # t = exp_zero(depth) is the boundary; the gate is strict
    with pytest.raises(ValueError, match="outside the depth-2 ladder domain"):
        ladder_eval(2, E)
    with pytest.raises(ValueError):
        ladder_eval(1, 1.0)
    with pytest.raises(ValueError, match="needs a finite t"):
        ladder_eval(0, math.inf)
    with pytest.raises(ValueError, match="ladder depth must be >= -1"):
        ladder_eval(-2, 1.0)


def test_log_components_match_iter_log():
    t = 40.0
    logs = ladder_eval(2, t)
    assert logs.tolist() == [iter_log(j, t) for j in range(0, 4)]
    assert all(v > 0.0 for v in logs)


@given(st.integers(0, 2), st.floats(20.0, 5000.0))
@settings(max_examples=60, deadline=None)
def test_ladder_components_positive_past_gate(depth, t):
    # past the evaluation gate exp_zero(depth + 1) even the log of the
    # deepest component is positive
    if not t > exp_zero(depth + 1):
        return
    logs = ladder_eval(depth, t)
    assert all(v > 0.0 for v in logs)
    assert len(logs) == depth + 2
    # entries strictly decrease along the ladder
    assert np.all(np.diff(logs) < 0)
