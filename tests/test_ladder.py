"""Iterated exponentials and logarithms, ladder points, domain gates."""

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
    pt = ladder_eval(1, E)
    assert pt.values == pytest.approx((E**E, E, 1.0))
    assert pt.component(-1) == pytest.approx(E**E)
    assert pt.component(0) == E
    assert pt.component(1) == pytest.approx(1.0)


def test_ladder_point_depth_zero():
    pt = ladder_eval(0, 3.0)
    assert pt.values == pytest.approx((math.exp(3.0), 3.0))


def test_ladder_eval_needs_positive_components():
    # t = exp_zero(depth) is the boundary; the gate is strict
    with pytest.raises(ValueError, match="outside the depth-2 ladder domain"):
        ladder_eval(2, E)
    with pytest.raises(ValueError):
        ladder_eval(1, 1.0)


def test_log_components_match_iter_log():
    t = 40.0
    pt = ladder_eval(2, t)
    for j in range(-1, 3):
        assert pt.component(j) == pytest.approx(iter_log(j, t))
        assert pt.log_component(j) == pytest.approx(iter_log(j + 1, t))
    assert all(v > 0.0 for v in pt.values)


@given(st.integers(0, 2), st.floats(20.0, 5000.0))
@settings(max_examples=60, deadline=None)
def test_ladder_components_positive_past_gate(depth, t):
    if not t > exp_zero(depth):
        return
    pt = ladder_eval(depth, t)
    assert all(v > 0.0 for v in pt.values)
    assert len(pt.values) == depth + 2
    # components strictly decrease along the ladder once t is large
    vals = np.array(pt.values)
    assert np.all(np.diff(vals) < 0)
