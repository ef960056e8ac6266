"""Adaptive Dormand-Prince 5(4) integrator with PI step control.

The right-hand side comes in two parts, y' = field(y) + sum of forcing(t)
records.  ``field`` is autonomous: it sees the state alone.  ``forcing``
depends on t alone, so it is evaluated once per attempted step, at all six
stage times t + c_i h at once, before the first stage runs.  Each stage adds
the forcing records to its field value one after another, in record order,
which is the sum a pointwise right-hand side field(y) + f_1(t) + f_2(t) + ...
would form.

The pair is Dormand & Prince's (J. Comput. Appl. Math. 6, 1980), written
out stage by stage as in Hairer, Norsett & Wanner's DOPRI5.  It advances
with the 5th-order solution and controls the step from the embedded
4th-order error estimate; the last stage doubles as the first stage of the
next step (FSAL).

The state and the stages are lists of Python complex numbers.  Each stage
input is one expression per component, with the tableau's zero entries
left out.  On the small systems this package integrates, a numpy call
costs more than the arithmetic it does, so a step touches numpy only to
evaluate the forcing and to convert its records with ``tolist``.  The
error norm is the RMS over the 2n real and imaginary components, each
scaled by abs_tol + rel_tol * max(|u|, |u_new|) of its own component.
Dense output between accepted points is cubic Hermite interpolation from
the stored endpoint derivatives; the trajectory's arrays are built once,
when the integration ends.
"""

from __future__ import annotations

import math
import sys
from cmath import isfinite
from dataclasses import dataclass, field

import numpy as np

__all__ = ["Trajectory", "StepUnderflow", "integrate_rhs"]

# Dormand-Prince 5(4) tableau.  Row 7 of A is the 5th-order weights (FSAL),
# and E = b5 - b4 weighs the error estimate; a72 = b2 = E2 = 0.
_C_STAGES = np.array((1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0))  # c2..c7, fractions of h
_A21 = 1 / 5
_A31, _A32 = 3 / 40, 9 / 40
_A41, _A42, _A43 = 44 / 45, -56 / 15, 32 / 9
_A51, _A52, _A53, _A54 = 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729
_A61, _A62, _A63, _A64, _A65 = 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656
_A71, _A73, _A74, _A75, _A76 = 35 / 384, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84
_E1 = _A71 - 5179 / 57600
_E3 = _A73 - 7571 / 16695
_E4 = _A74 - 393 / 640
_E5 = _A75 + 92097 / 339200
_E6 = _A76 - 187 / 2100
_E7 = -1 / 40

_SAFETY = 0.9
_ALPHA = 0.7 / 5  # proportional exponent of the PI controller
_BETA = 0.4 / 5  # integral exponent
_FAC_MIN = 0.2
_FAC_MAX = 5.0
_MAX_STEPS = 2_000_000
_TINY = 16 * sys.float_info.epsilon  # smallest step, relative to max(|t|, 1)


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


def _forcing_rows(forcing, ts) -> list[tuple]:
    """The forcing records at the times ts, as one tuple of rows per time.

    Each record is converted with one ``tolist``; entry j of a time's tuple
    is record j at that time, a list of n numbers.
    """
    records = [f.tolist() for f in forcing(ts)]
    return list(zip(*records)) if records else [()] * len(ts)


def _derivative(field, y, rows) -> list:
    """field(y) plus each forcing row of rows, added in record order."""
    k = field(y)
    for row in rows:
        k = [a + b for a, b in zip(k, row)]
    return k


class _NonFinite(Exception):
    """A stage came out non-finite; args[0] is the number of field calls made."""


def _stage(field, y, rows, i) -> list:
    """The derivative at stage input y, with the forcing rows of stage i + 2."""
    k = _derivative(field, y, rows[i])
    if not all(map(isfinite, k)):
        raise _NonFinite(i + 1)
    return k


def _attempt(field, rows, u, k1, h):
    """One step of size h from state u, whose derivative is k1.

    Returns the 5th-order solution, its derivative (stage 7, the next
    step's k1) and the error estimate h * sum_j E_j k_j per component.
    Raises _NonFinite at the first non-finite stage; no later stage runs.
    """
    k2 = _stage(field, [y + h * (_A21 * a) for y, a in zip(u, k1)], rows, 0)
    k3 = _stage(field, [y + h * (_A31 * a + _A32 * b) for y, a, b in zip(u, k1, k2)], rows, 1)
    y4 = [y + h * (_A41 * a + _A42 * b + _A43 * c) for y, a, b, c in zip(u, k1, k2, k3)]
    k4 = _stage(field, y4, rows, 2)
    y5 = [
        y + h * (_A51 * a + _A52 * b + _A53 * c + _A54 * d)
        for y, a, b, c, d in zip(u, k1, k2, k3, k4)
    ]
    k5 = _stage(field, y5, rows, 3)
    y6 = [
        y + h * (_A61 * a + _A62 * b + _A63 * c + _A64 * d + _A65 * e)
        for y, a, b, c, d, e in zip(u, k1, k2, k3, k4, k5)
    ]
    k6 = _stage(field, y6, rows, 4)
    y7 = [
        y + h * (_A71 * a + _A73 * c + _A74 * d + _A75 * e + _A76 * f)
        for y, a, c, d, e, f in zip(u, k1, k3, k4, k5, k6)
    ]
    k7 = _stage(field, y7, rows, 5)
    est = [
        h * (_E1 * a + _E3 * c + _E4 * d + _E5 * e + _E6 * f + _E7 * g)
        for a, c, d, e, f, g in zip(k1, k3, k4, k5, k6, k7)
    ]
    return y7, k7, est


def _error_norm(u, u_new, est, rel_tol, abs_tol) -> float:
    """RMS of est over the 2n real components, each divided by its scale
    abs_tol + rel_tol * max(|u|, |u_new|) on that component."""
    acc = 0.0
    for a, b, d in zip(u, u_new, est):
        ar, br, ai, bi = abs(a.real), abs(b.real), abs(a.imag), abs(b.imag)
        wr = d.real / (abs_tol + rel_tol * (ar if ar > br else br))
        wi = d.imag / (abs_tol + rel_tol * (ai if ai > bi else bi))
        acc += wr * wr + wi * wi
    return math.sqrt(acc / (2 * len(est)))


def _parts(v) -> list[float]:
    """The real and imaginary parts of the components, interleaved."""
    return [x for c in v for x in (c.real, c.imag)]


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v) / len(v))


def _initial_step(field, forcing, t0, y0, f0, rel_tol, abs_tol, t_max):
    """Hairer-style starting step guess on the stacked real components."""
    u0, g0 = _parts(y0), _parts(f0)
    sc = [abs_tol + rel_tol * abs(x) for x in u0]
    d0 = _rms([x / s for x, s in zip(u0, sc)])
    d1 = _rms([x / s for x, s in zip(g0, sc)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_max - t0)
    y1 = [y + h0 * f for y, f in zip(y0, f0)]
    f1 = _parts(_derivative(field, y1, _forcing_rows(forcing, np.array([t0 + h0]))[0]))
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, g0, sc)]) / h0
    if not math.isfinite(d2):
        # as for a non-finite stage: a quarter of the trial step
        return 0.25 * h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_max - t0)


def integrate_rhs(
    field, forcing, y0, t_span, rel_tol: float = 1e-10, abs_tol: float = 1e-12
) -> Trajectory:
    """Integrate y' = field(y) + sum(forcing(t)) over t_span with adaptive steps.

    ``field(y)`` receives the state as a list of n Python complex numbers
    and returns a sequence of n real or complex numbers; it must not
    change the list.  ``forcing(ts)`` receives a 1-D float array of
    times and returns a sequence of forcing records, each an array of shape
    (len(ts), n) whose row i is that record at ts[i]; an unforced problem
    returns an empty sequence.  Every attempted step makes one forcing call
    for its six stage times and up to six field calls: the first stage
    that is not finite ends the attempt, which is retried with a quarter of
    the step.  The start makes one call of each for the initial point and
    for the starting step guess; a guess whose trial derivative is not
    finite starts with a quarter of the trial step.  The step that reaches
    t_span[1] lands on it exactly.  ``rel_tol`` must be finite and >= 0 and
    ``abs_tol`` finite and > 0.  Raises StepUnderflow when error control
    cannot proceed.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0 and math.isfinite(abs_tol) and abs_tol > 0.0):
        raise ValueError(f"need finite rel_tol >= 0 and abs_tol > 0, got {rel_tol!r}, {abs_tol!r}")
    u = np.array(y0, dtype=complex).reshape(-1).tolist()
    k1 = _derivative(field, u, _forcing_rows(forcing, np.array([t0]))[0])
    if not all(map(isfinite, k1)):
        raise ValueError("right-hand side not finite at the initial point")
    h = _initial_step(field, forcing, t0, u, k1, rel_tol, abs_tol, t1)
    t = t0
    ts, states, derivs = [t0], [u], [k1]
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
        rows = _forcing_rows(forcing, t + _C_STAGES * h)
        try:
            u_new, k7, est = _attempt(field, rows, u, k1, h)
        except _NonFinite as stop:
            n_evals += stop.args[0]
            h *= 0.25
            n_rejects += 1
            max_factor = 1.0
            continue
        n_evals += 6
        err = _error_norm(u, u_new, est, rel_tol, abs_tol)
        if err <= 1.0:
            t = t1 if last else t + h
            u, k1 = u_new, k7  # FSAL: stage 7 is the derivative at the accepted point
            ts.append(t)
            states.append(u)
            derivs.append(k1)
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
        states=np.array(states, dtype=complex),
        derivs=np.array(derivs, dtype=complex),
        meta={
            "steps": n_steps,
            "rejected": n_rejects,
            "rhs_evals": n_evals,
            "rel_tol": rel_tol,
            "abs_tol": abs_tol,
        },
    )
