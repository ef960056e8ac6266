"""Adaptive Dormand-Prince 5(4) integrator with PI step control.

The pair advances with the 5th-order solution and controls the step from
the embedded 4th-order error estimate; the last stage doubles as the first
stage of the next step.  The state stays a complex vector and the seven
stages share one (7, n) complex array; the controller reads both through
their float views, so its norms run over the 2n stacked real and
imaginary components.  Dense output between accepted points is cubic
Hermite interpolation from the stored endpoint derivatives.
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trajectory", "StepUnderflow", "integrate_rhs"]

# Dormand-Prince 5(4) tableau; row 6 of A is the 5th-order weights (FSAL).
_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_A = tuple(
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
_B4 = np.array((5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40))
_E = np.append(_A[6], 0.0) - _B4  # 5th minus 4th order weights: the error estimate

_SAFETY = 0.9
_ALPHA = 0.7 / 5  # proportional exponent of the PI controller
_BETA = 0.4 / 5  # integral exponent
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_MAX_STEPS = 2_000_000
_TINY = 16 * np.finfo(float).eps  # smallest step, relative to max(|t|, 1)


class StepUnderflow(RuntimeError):
    """Step size shrank to the rounding level; the solution likely blows up."""


@dataclass
class Trajectory:
    """Accepted integration points with cubic-Hermite dense output."""

    ts: np.ndarray
    states: np.ndarray  # shape (len(ts), n), complex
    derivs: np.ndarray  # shape (len(ts), n), complex
    meta: dict = field(default_factory=dict)

    @property
    def t0(self) -> float:
        return float(self.ts[0])

    @property
    def t1(self) -> float:
        return float(self.ts[-1])

    def sample(self, t: float) -> np.ndarray:
        """Dense-output state at t (must lie inside the integrated span)."""
        t = float(t)
        if not self.ts[0] <= t <= self.ts[-1]:
            raise ValueError(f"t = {t} outside the integrated span")
        i = bisect.bisect_right(self.ts, t) - 1
        if i >= len(self.ts) - 1:
            return self.states[-1].copy()
        t0, t1 = self.ts[i], self.ts[i + 1]
        h = t1 - t0
        s = (t - t0) / h
        y0, y1 = self.states[i], self.states[i + 1]
        f0, f1 = self.derivs[i], self.derivs[i + 1]
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        return h00 * y0 + h * h10 * f0 + h01 * y1 + h * h11 * f1


def _initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, t_max):
    """Hairer-style starting step guess on the stacked real components."""
    u0, g0 = y0.view(float), f0.view(float)
    sc = abs_tol + rel_tol * np.abs(u0)
    d0 = float(np.sqrt(np.mean((np.abs(u0) / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((np.abs(g0) / sc) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_max - t0)
    f1 = np.asarray(rhs(t0 + h0, (u0 + h0 * g0).view(complex)), dtype=complex)
    d2 = float(np.sqrt(np.mean((np.abs(f1.view(float) - g0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_max - t0)


def integrate_rhs(
    rhs, y0, t_span, rel_tol: float = 1e-10, abs_tol: float = 1e-12
) -> Trajectory:
    """Integrate y' = rhs(t, y) over t_span with adaptive steps.

    rhs receives complex state vectors and may return real or complex
    ones.  Raises StepUnderflow when error control cannot proceed.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    y = np.array(y0, dtype=complex).reshape(-1)
    K = np.empty((7, y.shape[0]), dtype=complex)  # the stages, one per row
    Kf = K.view(float)
    K[0] = rhs(t0, y)
    if not np.all(np.isfinite(K[0])):
        raise ValueError("right-hand side not finite at the initial point")
    h = _initial_step(rhs, t0, y, K[0], rel_tol, abs_tol, t1)
    t = t0
    ts = [t0]
    states = [y]
    derivs = [K[0].copy()]
    u, au = y.view(float), np.abs(y.view(float))
    err_prev = 1.0
    n_steps = n_rejects = 0
    n_evals = 2
    max_factor = _FAC_MAX
    while t < t1:
        if n_steps > _MAX_STEPS:
            raise RuntimeError("step budget exhausted")
        h = min(h, t1 - t)
        if h <= _TINY * max(abs(t), 1.0):
            raise StepUnderflow(f"step size underflow at t = {t}")
        for i in range(1, 7):
            u_new = u + h * (_A[i] @ Kf[:i])
            K[i] = rhs(t + _C[i] * h, u_new.view(complex))
        n_evals += 6
        if not np.isfinite(Kf).all():
            h *= 0.25
            n_rejects += 1
            max_factor = 1.0
            continue
        # u_new is the last stage input, the 5th-order solution
        au_new = np.abs(u_new)
        sc = abs_tol + rel_tol * np.maximum(au, au_new)
        w = h * (_E @ Kf) / sc
        err = math.sqrt(w @ w / w.size)  # RMS over the 2n real components
        if err <= 1.0:
            t += h
            u, au = u_new, au_new
            K[0] = K[6]  # FSAL: the last stage is rhs at the accepted point
            ts.append(t)
            states.append(u.view(complex))
            derivs.append(K[6].copy())
            n_steps += 1
            err_c = max(err, 1e-10)
            factor = _SAFETY * err_c**-_ALPHA * err_prev**_BETA
            h *= min(max_factor, max(_FAC_MIN, factor))
            err_prev = err_c
            max_factor = _FAC_MAX
        else:
            n_rejects += 1
            factor = _SAFETY * err**-_ALPHA
            h *= min(1.0, max(_FAC_MIN, factor))
            max_factor = 1.0

    return Trajectory(
        ts=np.array(ts),
        states=np.array(states),
        derivs=np.array(derivs),
        meta={
            "steps": n_steps,
            "rejected": n_rejects,
            "rhs_evals": n_evals,
            "rel_tol": rel_tol,
            "abs_tol": abs_tol,
        },
    )
