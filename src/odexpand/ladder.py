"""Iterated exponential / logarithm ladder.

The time scales used throughout the package form a two-sided ladder:

    iter_exp(0, t) = t,        iter_exp(m+1, t) = exp(iter_exp(m, t))
    iter_log(-1, t) = exp(t),  iter_log(0, t) = t,
    iter_log(m+1, t) = log(iter_log(m, t))

``iter_log(m, .)`` takes positive values only for t > iter_exp(m, 0), and
equals 1 exactly at t = iter_exp(m+1, 0).  ``ladder_eval(depth, t)`` is the
one evaluator of the ladder at a time, or at a 1-D array of times: the
array of logs of the components
iter_log(-1, t), ..., iter_log(depth, t), that is
(t, log t, ..., iter_log(depth+1, t)).  Complex powers of the components
are exponentials of linear forms in it, and exp(t) is never formed.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

__all__ = ["iter_exp", "iter_log", "exp_zero", "ladder_eval"]


def iter_exp(m: int, t: float) -> float:
    """m-fold iterated exponential of t.  Overflow saturates to inf."""
    if m < 0:
        raise ValueError("iter_exp needs m >= 0")
    x = float(t)
    for _ in range(m):
        try:
            x = math.exp(x)
        except OverflowError:
            return math.inf
    return x


@lru_cache(maxsize=None)
def exp_zero(m: int) -> float:
    """iter_exp(m, 0): the threshold above which iter_log(m, .) is positive."""
    return iter_exp(m, 0.0)


def iter_log(m: int, t: float) -> float:
    """m-fold iterated logarithm of t (m = -1 gives exp(t)).

    Defined for t > exp_zero(m - 1) when m >= 1; raises on domain violations
    instead of returning nan.
    """
    if m < -1:
        raise ValueError("iter_log needs m >= -1")
    if m == -1:
        try:
            return math.exp(t)
        except OverflowError:
            return math.inf
    x = float(t)
    for _ in range(m):
        if x <= 0.0:
            raise ValueError(f"iter_log({m}, {t!r}) outside its domain")
        x = math.log(x)
    return x


def ladder_eval(depth: int, t) -> np.ndarray:
    """Logs of the ladder components down to ``depth`` at time t.

    Entry j is log(iter_log(j - 1, t)) = iter_log(j, t), for j = 0..depth+1,
    so entry 0 is t itself.  Requires a finite t > exp_zero(depth), so the
    deepest component is strictly positive (it vanishes exactly at the
    threshold).  A 1-D array of times gives one such row per time, shape
    (len(t), depth+2); the times are checked in one pass, and the first bad
    one in array order raises.  Column j + 1 is ``math.log`` mapped over
    column j, so each row is the scalar row's chain of ``math.log`` calls,
    bit for bit; ``np.log`` can differ from it in the last bit.
    """
    if depth < -1:
        raise ValueError("ladder depth must be >= -1")
    ts = np.asarray(t, dtype=float)
    times = ts.reshape(-1)
    lo = exp_zero(depth) if depth >= 0 else -math.inf
    col = times.tolist()
    for x in col:
        if not lo < x < math.inf:
            if not math.isfinite(x):
                raise ValueError("ladder_eval needs a finite t")
            raise ValueError(
                f"t = {x!r} is outside the depth-{depth} ladder domain (need t > {lo!r})"
            )
    out = np.empty((len(col), depth + 2))
    out[:, 0] = times
    for j in range(1, depth + 2):
        col = list(map(math.log, col))
        out[:, j] = col
    return out if ts.ndim else out[0]
