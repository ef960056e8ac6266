"""Adaptive Dormand-Prince 5(4) integrator with PI step control.

The right-hand side is one function rhs(t, y), called once per stage at
the stage time t + c_i h, as in Hairer, Norsett & Wanner's DOPRI5.  The
pair is Dormand & Prince's (J. Comput. Appl. Math. 6, 1980), written out
stage by stage.  It advances with the 5th-order solution and controls the
step from the embedded 4th-order error estimate; the last stage doubles as
the first stage of the next step (FSAL).

The state and the stages are lists of Python numbers.  On the small
systems this package integrates, a numpy call costs more than the
arithmetic it does, so an attempted step makes none: the right-hand side
is the problem's generated straight-line function (``numerics.make_rhs``),
and the rest of the step is one straight-line Python function, generated
from the tableau for each state length n the first time ``integrate_rhs``
meets it, and cached.  It unpacks the state and the previous derivative
into local names and gives every component of every stage its own
statement: the stage input u_j + h * (a_1 k1_j + ... ) with the tableau's
zero entries left out, then one rhs call on a list of the stage's
components, then a finiteness check that raises at the first non-finite
stage.  The error norm is the RMS over the 2n real and imaginary
components, each scaled by abs_tol + rel_tol * max(|u|, |u_new|) of its
own component, summed one component at a time.

Separate statements, not one expression per stage over all components,
keep the source flat: CPython's compiler recurses into nested expressions
and fails on very long ones.  However large n is, an expression sums at
most seven terms, and the n-long parts are flat lists of names.  The
generated code does the arithmetic of a loop over the components with the
same expressions, the same grouping and the same order, so the trajectory
is bit for bit what that loop gives (``tests/helpers.py`` keeps such a loop
as the oracle); only the interpreter's work around the arithmetic (loops,
``zip`` tuples, calls) is gone.

Dense output between accepted points is cubic Hermite interpolation from
the stored endpoint derivatives; the trajectory's arrays are built once,
when the integration ends.
"""

from __future__ import annotations

import math
import sys
from cmath import isfinite
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

__all__ = ["Trajectory", "StepUnderflow", "integrate_rhs"]

# Dormand-Prince 5(4) tableau.  Row 7 of A is the 5th-order weights (FSAL),
# and E = b5 - b4 weighs the error estimate; a72 = b2 = E2 = 0.
_C2, _C3, _C4, _C5, _C6, _C7 = 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0  # fractions of h
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
    meta: dict  # steps, rejected, rhs_evals, rel_tol, abs_tol

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


class _NonFinite(Exception):
    """A stage came out non-finite; args[0] is the number of rhs calls made."""


# Row i of the tableau weighs k1, k2, ... for stage i + 2's input; row 5
# (stage 7) is the 5th-order solution.  None marks a zero entry.
_STAGE_ROWS = (
    ("_A21",),
    ("_A31", "_A32"),
    ("_A41", "_A42", "_A43"),
    ("_A51", "_A52", "_A53", "_A54"),
    ("_A61", "_A62", "_A63", "_A64", "_A65"),
    ("_A71", None, "_A73", "_A74", "_A75", "_A76"),
)
_ERROR_ROW = ("_E1", None, "_E3", "_E4", "_E5", "_E6", "_E7")


def _weighted(row, j: int) -> str:
    """sum_s row[s] * k{s+1}_j over the nonzero entries, left to right."""
    return " + ".join(f"{w} * k{s + 1}_{j}" for s, w in enumerate(row) if w is not None)


@lru_cache(maxsize=None)
def _generated_attempt(n: int):
    """The attempt function for n components.

    ``attempt(rhs, t, u, k1, h, rel_tol, abs_tol)`` calls rhs once per
    stage, at t + c_i * h.  It returns the 5th-order solution, its
    derivative (stage 7, the next step's k1) and the error norm, or raises
    _NonFinite at the first non-finite stage; no later stage runs.  The
    tableau entries are read by name from this module.
    """

    def names(fmt: str) -> str:
        return ", ".join(fmt.format(j) for j in range(n))

    lines = [
        "def attempt(rhs, t, u, k1, h, rel_tol, abs_tol):",
        f"    {names('u{}')}, = u",
        f"    {names('k1_{}')}, = k1",
    ]
    for i, row in enumerate(_STAGE_ROWS, start=2):
        lines += [f"    y{i}_{j} = u{j} + h * ({_weighted(row, j)})" for j in range(n)]
        lines.append(f"    y{i} = [{names(f'y{i}_{{}}')}]")
        lines.append(f"    {names(f'k{i}_{{}}')}, = rhs(t + _C{i} * h, y{i})")
        for j in range(n):
            lines += [f"    if not isfinite(k{i}_{j}):", f"        raise _NonFinite({i - 1})"]
    lines.append("    acc = 0.0")
    for j in range(n):
        lines.append(f"    d = h * ({_weighted(_ERROR_ROW, j)})")
        for part, w in (("real", "wr"), ("imag", "wi")):
            lines += [
                f"    a, b = abs(u{j}.{part}), abs(y7_{j}.{part})",
                f"    {w} = d.{part} / (abs_tol + rel_tol * (a if a > b else b))",
            ]
        lines.append("    acc += wr * wr + wi * wi")
    lines.append(f"    return y7, [{names('k7_{}')}], math.sqrt(acc / {2 * n})")
    namespace = {}
    exec(compile("\n".join(lines), f"<rk45 attempt n={n}>", "exec"), globals(), namespace)
    return namespace["attempt"]


def _parts(v) -> list[float]:
    """The real and imaginary parts of the components, interleaved."""
    return [x for c in v for x in (c.real, c.imag)]


def _rms(v) -> float:
    return math.sqrt(sum(x * x for x in v) / len(v))


def _initial_step(rhs, t0, y0, f0, rel_tol, abs_tol, t_max):
    """Hairer-style starting step guess on the stacked real components."""
    u0, g0 = _parts(y0), _parts(f0)
    sc = [abs_tol + rel_tol * abs(x) for x in u0]
    d0 = _rms([x / s for x, s in zip(u0, sc)])
    d1 = _rms([x / s for x, s in zip(g0, sc)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_max - t0)
    y1 = [y + h0 * f for y, f in zip(y0, f0)]
    f1 = _parts(rhs(t0 + h0, y1))
    d2 = _rms([(a - b) / s for a, b, s in zip(f1, g0, sc)]) / h0
    if not math.isfinite(d2):
        # as for a non-finite stage: a quarter of the trial step
        return 0.25 * h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_max - t0)


def integrate_rhs(rhs, y0, t_span, rel_tol: float, abs_tol: float) -> Trajectory:
    """Integrate y' = rhs(t, y) over t_span with adaptive steps.

    ``rhs(t, y)`` receives a Python float t and the state as a list of n
    Python complex numbers, and returns a sequence of n real or complex
    numbers; it must not change the list.  Every attempted step makes up
    to six rhs calls, one per stage at t + c_i h: the first stage that is
    not finite ends the attempt, which is retried with a quarter of the
    step.  The start makes one call at the initial point and one for the
    starting step guess; a guess whose trial derivative is not finite
    starts with a quarter of the trial step.  Both ends of t_span must be
    finite, so every time passed to rhs is a finite float no smaller than
    t_span[0].  The step that reaches t_span[1] lands on it exactly.
    ``rel_tol`` must be finite and >= 0 and ``abs_tol`` finite and > 0.
    Raises StepUnderflow when error control cannot proceed.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not (math.isfinite(t0) and math.isfinite(t1)):
        raise ValueError(f"t_span must be finite, got ({t0!r}, {t1!r})")
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0 and math.isfinite(abs_tol) and abs_tol > 0.0):
        raise ValueError(f"need finite rel_tol >= 0 and abs_tol > 0, got {rel_tol!r}, {abs_tol!r}")
    u = np.array(y0, dtype=complex).reshape(-1).tolist()
    attempt = _generated_attempt(len(u))
    k1 = rhs(t0, u)
    if not all(map(isfinite, k1)):
        raise ValueError("right-hand side not finite at the initial point")
    h = _initial_step(rhs, t0, u, k1, rel_tol, abs_tol, t1)
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
        try:
            u_new, k7, err = attempt(rhs, t, u, k1, h, rel_tol, abs_tol)
        except _NonFinite as stop:
            n_evals += stop.args[0]
            h *= 0.25
            n_rejects += 1
            max_factor = 1.0
            continue
        n_evals += 6
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
