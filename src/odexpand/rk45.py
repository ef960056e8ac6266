"""Adaptive Dormand-Prince 5(4) integrator with PI step control.

The right-hand side comes in two parts, y' = field(y) + sum of forcing(t)
records.  ``field`` is autonomous: it sees the state alone.  ``forcing``
depends on t alone, so it is evaluated once per attempted step, at all six
stage times t + c_i h at once, before the first stage runs.  Each stage adds
the forcing records to its field value one after another, in record order,
which is the sum a pointwise right-hand side field(y) + f_1(t) + f_2(t) + ...
would form.

The pair advances with the 5th-order solution and controls the step from
the embedded 4th-order error estimate; the last stage doubles as the first
stage of the next step.  The state stays a complex vector and the seven
stages share one (7, n) complex array; the controller reads both through
their float views, so its norms run over the 2n stacked real and
imaginary components.  Dense output between accepted points is cubic
Hermite interpolation from the stored endpoint derivatives.
"""

from __future__ import annotations

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
_C_STAGES = np.array(_C[1:])  # stage times of stages 1..6, as fractions of h
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

    def sample(self, t) -> np.ndarray:
        """Dense-output state at a time, or one row per time of a 1-D array.

        Every time must lie inside the integrated span.  Each time is found
        among the accepted points by one ``np.searchsorted`` and interpolated
        on its step; at t1 the result is ``states[-1]`` exactly.
        """
        tv = np.asarray(t, dtype=float).reshape(-1)
        outside = ~((self.ts[0] <= tv) & (tv <= self.ts[-1]))
        if outside.any():
            raise ValueError(f"t = {tv[outside][0]} outside the integrated span")
        i = np.minimum(np.searchsorted(self.ts, tv, side="right") - 1, len(self.ts) - 2)
        h = (self.ts[i + 1] - self.ts[i])[:, None]
        s = (tv - self.ts[i])[:, None] / h
        h00 = (1 + 2 * s) * (1 - s) ** 2
        h10 = s * (1 - s) ** 2
        h01 = s * s * (3 - 2 * s)
        h11 = s * s * (s - 1)
        out = (
            h00 * self.states[i]
            + h * h10 * self.derivs[i]
            + h01 * self.states[i + 1]
            + h * h11 * self.derivs[i + 1]
        )
        out[tv == self.ts[-1]] = self.states[-1]
        return out if np.ndim(t) else out[0]


def _derivative(field, forcing, ts, y) -> np.ndarray:
    """field(y) plus every forcing record at the one time in ts, as a new array."""
    out = np.array(field(y), dtype=complex)
    for f in forcing(ts):
        out += f[0]
    return out


def _initial_step(field, forcing, t0, y0, f0, rel_tol, abs_tol, t_max):
    """Hairer-style starting step guess on the stacked real components."""
    u0, g0 = y0.view(float), f0.view(float)
    sc = abs_tol + rel_tol * np.abs(u0)
    d0 = float(np.sqrt(np.mean((np.abs(u0) / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((np.abs(g0) / sc) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_max - t0)
    f1 = _derivative(field, forcing, np.array([t0 + h0]), (u0 + h0 * g0).view(complex))
    d2 = float(np.sqrt(np.mean((np.abs(f1.view(float) - g0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_max - t0)


def integrate_rhs(
    field, forcing, y0, t_span, rel_tol: float = 1e-10, abs_tol: float = 1e-12
) -> Trajectory:
    """Integrate y' = field(y) + sum(forcing(t)) over t_span with adaptive steps.

    ``field(y)`` receives a complex state vector and may return a real or
    complex one.  ``forcing(ts)`` receives a 1-D float array of times and
    returns a sequence of forcing records, each an array of shape
    (len(ts), n) whose row i is that record at ts[i]; an unforced problem
    returns an empty sequence.  Every attempted step makes one forcing call
    for its six stage times and six field calls; the start makes one of
    each for the initial point and for the starting step guess.  The step
    that reaches t_span[1] lands on it exactly.  ``rel_tol`` must be finite
    and >= 0 and ``abs_tol`` finite and > 0.  Raises StepUnderflow when
    error control cannot proceed.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0 and math.isfinite(abs_tol) and abs_tol > 0.0):
        raise ValueError(f"need finite rel_tol >= 0 and abs_tol > 0, got {rel_tol!r}, {abs_tol!r}")
    y = np.array(y0, dtype=complex).reshape(-1)
    K = np.empty((7, y.shape[0]), dtype=complex)  # the stages, one per row
    Kf = K.view(float)
    K[0] = _derivative(field, forcing, np.array([t0]), y)
    if not np.all(np.isfinite(K[0])):
        raise ValueError("right-hand side not finite at the initial point")
    h = _initial_step(field, forcing, t0, y, K[0], rel_tol, abs_tol, t1)
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
        # t + (t1 - t) can round below t1, so the last step sets t = t1
        last = h >= t1 - t
        if last:
            h = t1 - t
        # written so that a NaN step raises too
        if not h > _TINY * max(abs(t), 1.0):
            raise StepUnderflow(f"step size underflow at t = {t}")
        records = forcing(t + _C_STAGES * h)
        for i in range(1, 7):
            u_new = u + h * (_A[i] @ Kf[:i])
            K[i] = field(u_new.view(complex))
            for f in records:
                K[i] += f[i - 1]
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
            t = t1 if last else t + h
            u, au = u_new, au_new
            K[0] = K[6]  # FSAL: the last stage is the derivative at the accepted point
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
