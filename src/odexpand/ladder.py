"""Iterated exponential / logarithm ladder.

The time scales used throughout the package form a two-sided ladder:

    iter_exp(0, t) = t,        iter_exp(m+1, t) = exp(iter_exp(m, t))
    iter_log(-1, t) = exp(t),  iter_log(0, t) = t,
    iter_log(m+1, t) = log(iter_log(m, t))

``iter_log(m, .)`` takes positive values only for t > iter_exp(m, 0), and
equals 1 exactly at t = iter_exp(m+1, 0).  A ``LadderPoint`` bundles the
ladder components at one time together with the domain bookkeeping that
symbolic evaluation needs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

__all__ = ["iter_exp", "iter_log", "exp_zero", "LadderPoint", "ladder_eval"]


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


@dataclass(frozen=True)
class LadderPoint:
    """Ladder components (iter_log(-1, t), ..., iter_log(depth, t)) at one t.

    ``values[j]`` holds iter_log(j - 1, t), so values[0] is exp(t) (inf once
    t overflows exp; symbolic evaluation never uses the materialized value).
    ``log_values[j]`` holds log(values[j]) = iter_log(j, t) computed without
    forming exp(t), which is what complex powers are evaluated through.
    """

    t: float
    depth: int
    values: tuple[float, ...]
    log_values: tuple[float, ...]

    def component(self, j: int) -> float:
        """iter_log(j, t) for -1 <= j <= depth."""
        return self.values[j + 1]

    def log_component(self, j: int) -> float:
        """log(iter_log(j, t)) for -1 <= j <= depth; index -1 gives t."""
        return self.log_values[j + 1]


def ladder_eval(depth: int, t: float) -> LadderPoint:
    """Evaluate the ladder components down to ``depth`` at time t.

    Requires t > exp_zero(depth) so the deepest component is strictly
    positive (it vanishes exactly at the threshold).
    """
    if depth < -1:
        raise ValueError("ladder depth must be >= -1")
    t = float(t)
    if not math.isfinite(t):
        raise ValueError("ladder_eval needs a finite t")
    if depth >= 0 and t <= exp_zero(depth):
        raise ValueError(
            f"t = {t!r} is outside the depth-{depth} ladder domain "
            f"(need t > {exp_zero(depth)!r})"
        )
    vals = [iter_log(-1, t)]
    logs = [t]
    x = t
    for m in range(depth + 1):
        vals.append(x)
        if m < depth:
            x = math.log(x)
            logs.append(x)
        else:
            # log of the deepest component, used by complex powers; safe
            # because the guard above keeps it positive.
            logs.append(math.log(x))
    return LadderPoint(t=t, depth=depth, values=tuple(vals), log_values=tuple(logs))
