"""Numerical verification tools: integration, decay fits, bounds.

Everything here treats the symbolic layer as a black box that can be
evaluated on a grid of times.  The checks are deliberately independent of
the construction: trajectories come from an adaptive Runge-Kutta run and
decay rates from least-squares fits in the appropriate log coordinates.
The run's right-hand side, forcing included, is one straight-line
function rhs(t, y) generated per problem (``make_rhs``), so an attempted
step makes no numpy call.  The remainder check samples the trajectory once
on the grid, and ``remainder_series`` returns |y - S_N| for every N as one
table.  The kernel fit takes its own 64 samples in its window; the fitted
constants enter the table as values added to the partial sums, never as
symbolic terms.  ``cli.verify`` runs these steps into a ``VerifyResult``.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass

import numpy as np

from .engine import Expansion, ProblemSpec, _partial_sums, eval_partial_sum
from .expsum import running_sum, snap_float
from .ladder import ladder_eval
from .logpower import LogPowerSum, row_norms
from .rk45 import Trajectory, integrate_rhs

__all__ = [
    "DecayFit",
    "SmallnessCertificate",
    "SparseFitWindow",
    "VerifyResult",
    "decay_envelope_constant",
    "decay_fit_window",
    "fit_decay",
    "fit_kernel_constants",
    "integrate",
    "make_rhs",
    "matrix_exp_norm",
    "remainder_series",
    "smallness_certificate",
]


# ---------------------------------------------------------------------------
# Right-hand sides and integration


def make_rhs(spec: ProblemSpec):
    """Callable (t, y) -> -A y + sum of multilinear terms + forcing at t.

    ``t`` is a Python float and ``y`` a list of n Python complex numbers,
    as ``integrate_rhs`` passes them; the result is a new such list.

    The right-hand side is one straight-line Python function, generated
    per call.  It unpacks y into locals and forms -A y row by row, as
    the running sum ``a{i}`` from 0j of ``n{i}_{j}*y{j}`` over the nonzero
    entries of -A in row-major order, the arithmetic of an arity-1
    ``MultiLinearMap`` of those entries.  (Such a map stores 0j + -A[i, j],
    which can differ in the sign of a zero part; the products then differ
    at most in the sign of a zero, which the running sum from 0j absorbs.)
    Each map of ``spec.maps`` is called once through its ``__call__`` on
    the list y.  Each forcing term's statements for the time t follow
    (``LogPowerSum.emit``, ``ExpPolySum.emit``); they do not check t.
    Component i of the result is ``a{i} + g0[i] + g1[i] ... + f0_i +
    f1_i ...``: the maps' outputs in ``spec.maps`` order, then the forcing
    terms in ``spec.forcing`` order.  Values and maps are bound by name in
    the namespace the source runs in.
    """
    n = spec.dim
    neg_A = -spec.matrix
    namespace = {}
    ys = ", ".join(f"y{j}" for j in range(n))
    lines = ["def rhs(t, y):", f"    {ys}, = y"]
    products = [[] for _ in range(n)]
    for i, j in zip(*np.nonzero(neg_A)):
        namespace[f"n{i}_{j}"] = complex(neg_A[i, j])
        products[i].append(f"n{i}_{j}*y{j}")
    for i in range(n):
        lines += [f"    {x}" for x in running_sum(f"a{i}", "0j", products[i])]
    for k, g in enumerate(spec.maps):
        namespace[f"m{k}"] = g
        lines.append(f"    g{k} = m{k}({', '.join(['y'] * g.arity)})")
    for r, (_, term) in enumerate(spec.forcing):
        lines += [f"    {x}" for x in term.emit(f"f{r}_", namespace)]
    outs = ", ".join(
        "".join(
            [f"a{i}"]
            + [f" + g{k}[{i}]" for k in range(len(spec.maps))]
            + [f" + f{r}_{i}" for r in range(len(spec.forcing))]
        )
        for i in range(n)
    )
    lines.append(f"    return [{outs}]")
    exec(compile("\n".join(lines), "<numerics.make_rhs>", "exec"), namespace)
    return namespace["rhs"]


def integrate(spec: ProblemSpec, y0, t_span, rel_tol: float, abs_tol: float) -> Trajectory:
    """Integrate the problem's ODE over t_span; the config owns the tolerances' defaults.

    The right-hand side comes from ``make_rhs``.  Its forcing statements
    do not check their times, so each power/log term's domain gate runs
    once per integration, as an ``eval`` at t_span[0]: a t_span that starts
    outside a term's domain raises that term's own ValueError there, and
    the stage times never fall below t_span[0].
    """
    for _, term in spec.forcing:
        if isinstance(term, LogPowerSum):
            term.eval(t_span[0])
    return integrate_rhs(make_rhs(spec), y0, t_span, rel_tol, abs_tol)


# ---------------------------------------------------------------------------
# Matrix exponential envelopes


# Degree-13 Pade coefficients and the 1-norm bound below which that
# approximant is accurate to unit roundoff (Higham, SIAM J. Matrix Anal.
# Appl. 26 (2005), Table 2.3).  Divided by the constant term, so that a
# zero slice solves I X = I and exp(0) comes out exactly I.
_PADE13 = tuple(
    b / 64764752532480000.0
    for b in (
        64764752532480000.0, 32382376266240000.0, 7771770303897600.0,
        1187353796428800.0, 129060195264000.0, 10559470521600.0, 670442572800.0,
        33522128640.0, 1323241920.0, 40840800.0, 960960.0, 16380.0, 182.0, 1.0,
    )
)
_THETA13 = 5.371920351148152


def _expm_stack(M: np.ndarray) -> np.ndarray:
    """exp of every (n, n) slice of M, by degree-13 Pade scaling and squaring.

    One pass of array operations over the whole stack.  scipy's expm
    loops over slices in Python and takes a much slower branch on
    triangular ones, so its cost would depend on the matrix's shape.
    """
    norm1 = np.abs(M).sum(axis=-2).max(axis=-1)
    s = np.ceil(np.log2(np.maximum(norm1, _THETA13) / _THETA13)).astype(int)
    X = M * (0.5**s)[:, None, None]
    b = _PADE13
    eye = np.eye(M.shape[-1])
    X2 = X @ X
    X4 = X2 @ X2
    X6 = X2 @ X4
    U = X @ (
        X6 @ (b[13] * X6 + b[11] * X4 + b[9] * X2)
        + b[7] * X6 + b[5] * X4 + b[3] * X2 + b[1] * eye
    )
    V = (
        X6 @ (b[12] * X6 + b[10] * X4 + b[8] * X2)
        + b[6] * X6 + b[4] * X4 + b[2] * X2 + b[0] * eye
    )
    E = np.linalg.solve(V - U, V + U)
    for i in range(int(s.max(initial=0))):
        sq = s > i
        E[sq] = E[sq] @ E[sq]
    return E


def matrix_exp_norm(A: np.ndarray, t_grid) -> np.ndarray:
    """Operator 2-norms of exp(-t A) over the grid, all in one batch."""
    A = np.asarray(A, dtype=complex)
    t = np.asarray(t_grid, dtype=float).reshape(-1)
    return np.linalg.norm(_expm_stack(-t[:, None, None] * A), 2, axis=(1, 2))


# The envelope's grid: _ENVELOPE_POINTS times on [0, _ENVELOPE_SPAN / lambda_1].
# |exp(-tA)| exp(lambda_1 t/2) <= poly(t) exp(-lambda_1 t/2): dead past ~80/lambda_1.
_ENVELOPE_SPAN = 80.0
_ENVELOPE_POINTS = 641


def decay_envelope_constant(A: np.ndarray, lam1: float) -> float:
    """Smallest observed C with |exp(-t A)| <= C exp(-lambda_1 t / 2).

    lam1 is lambda_1, the smallest real part of A's eigenvalues.  The
    envelope with half the slowest rate always decays, so the sup is
    attained on a bounded window, which the fixed grid covers generously.
    """
    if lam1 <= 0:
        raise ValueError("matrix must have spectrum in the open right half plane")
    t_grid = np.linspace(0.0, _ENVELOPE_SPAN / lam1, _ENVELOPE_POINTS)
    norms = matrix_exp_norm(A, t_grid)
    return float(np.max(norms * np.exp(0.5 * lam1 * t_grid)))


# ---------------------------------------------------------------------------
# Smallness certificate


@dataclass(frozen=True)
class SmallnessCertificate:
    """Computable constants guaranteeing global decay for small data.

    ball_radius bounds the solution norm, initial_bound and forcing_bound
    are the admissible sizes of y(0) and of the forcing envelope.
    """

    lambda1: float
    envelope_constant: float
    quadratic_constant: float
    probe_radius: float
    ball_radius: float
    initial_bound: float
    forcing_bound: float
    samples: int


# Standard normal quantile, elementwise; agrees with scipy.special.ndtri to
# about 1e-15 relative.
_normal_quantile = np.vectorize(statistics.NormalDist().inv_cdf, otypes=[float])


def _kronecker_directions(dim2: int, count: int) -> np.ndarray:
    """Low-discrepancy points on the unit sphere in R^dim2.

    Kronecker sequence on the cube pushed through the normal quantile,
    then normalised; deterministic by construction.
    """
    # Generalised golden-ratio increments.
    phi = 1.0
    for _ in range(64):
        phi = (1.0 + phi) ** (1.0 / (dim2 + 1))
    alphas = np.array([(1.0 / phi) ** (j + 1) % 1.0 for j in range(dim2)])
    k = np.arange(1, count + 1).reshape(-1, 1)
    u = (0.5 + k * alphas) % 1.0
    # Clip away the quantile's poles.
    u = np.clip(u, 1e-12, 1.0 - 1e-12)
    g = _normal_quantile(u)
    norms = np.linalg.norm(g, axis=1, keepdims=True)
    return g / norms


def smallness_certificate(
    spec: ProblemSpec, probe_radius: float, samples: int
) -> SmallnessCertificate:
    """Certify constants for the small-data decay threshold.

    The quadratic constant is estimated by probing the full nonlinearity
    along ``samples`` deterministic sphere directions at geometrically
    spaced radii up to probe_radius and maximising |G(x)| / |x|^2.  Each
    radius probes every direction in one batched evaluation per map.
    """
    if probe_radius <= 0:
        raise ValueError("probe_radius must be positive")
    lam1 = spec.slowest_rate()
    c0 = decay_envelope_constant(spec.matrix, lam1)
    n = spec.dim
    dirs = _kronecker_directions(2 * n, samples)
    dirs_c = dirs[:, :n] + 1j * dirs[:, n:]
    dirs_c /= np.linalg.norm(dirs_c, axis=1, keepdims=True)
    radii = probe_radius * 0.5 ** np.arange(8)
    c_star = 0.0
    for r in radii:
        x = r * dirs_c
        gx = np.zeros_like(x)
        for g in spec.maps:
            gx += g.batch(*([x] * g.arity))
        # row_norms is bit for bit each row's per-vector norm
        c_star = max(c_star, float(row_norms(gx).max()) / (r * r))
    # Quantize to the package-wide coefficient grid: the probe only sees
    # the constant to rounding accuracy, and downstream thresholds should
    # not wobble with the sample set's last ulp.
    c_star = snap_float(c_star)
    if c_star == 0.0:
        ball = probe_radius
    else:
        ball = min(probe_radius, lam1 / (12.0 * c0 * c_star))
    eps0 = min(ball / 2.0, ball / (6.0 * c0))
    eps1 = lam1 * ball / (12.0 * c0)
    return SmallnessCertificate(
        lambda1=lam1,
        envelope_constant=c0,
        quadratic_constant=c_star,
        probe_radius=probe_radius,
        ball_radius=ball,
        initial_bound=eps0,
        forcing_bound=eps1,
        samples=samples,
    )


# ---------------------------------------------------------------------------
# Remainders and decay fits


def remainder_series(
    traj: Trajectory, expansion: Expansion, upto: int, ts, kernel: tuple | None
) -> np.ndarray:
    """Table of |y(t) - S_N(t)| for N = 0..upto on a time grid inside the trajectory.

    Row N holds the norms against the partial sum of the first N orders,
    so row 0 is |y| itself.  ``kernel`` is None or a ``(k, coeffs)`` pair,
    as ``fit_kernel_constants`` returns coeffs for order k: every partial sum
    from order k on then also holds sum_i coeffs[i] * mode_i(t) over order
    k's kernel modes.  The trajectory is sampled once for all rows; the
    partial sums come from the loop ``eval_partial_sum`` runs.
    """
    ts = np.asarray(ts, dtype=float)
    ys = traj.sample(ts)
    partials = list(_partial_sums(expansion, upto, ts))
    if kernel is not None:
        k, coeffs = kernel
        modes = expansion.orders[k - 1].kernel
        if len(coeffs) != len(modes):
            raise ValueError("coefficient count != kernel size")
        fitted = sum(c * mode.eval(ts) for c, mode in zip(coeffs, modes))
        partials[k:] = [s + fitted for s in partials[k:]]
    return np.stack([row_norms(ys - s) for s in partials])


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay rate of a positive sample sequence.

    exponent is the fitted decay rate against the mode's natural
    regressor: t for exponential problems, log of the scale-m* iterated
    logarithm otherwise.  window is the first and last time fitted.
    """

    exponent: float
    r_squared: float
    window: tuple


@dataclass(frozen=True)
class VerifyResult:
    """``cli.verify``'s measurements: per N of orders, a row of remainders (|y - S_N| on
    grid), the gated mu_N - margin, the DecayFit (None: sparse window) and the verdict."""

    grid: np.ndarray
    orders: tuple
    remainders: np.ndarray
    threshold: tuple
    fit: tuple
    passed: tuple
    kernel: tuple | None  # (k, coeffs): order k's fitted kernel constants, or None
    meta: dict  # the trajectory's Trajectory.meta: steps, rejects, rhs evals, tolerances


class SparseFitWindow(ValueError):
    """The fit window holds fewer than 3 samples above the noise floor."""


def decay_fit_window(ts: np.ndarray, window: tuple | None) -> tuple:
    """fit_decay's (first, last) time: window, else the trailing 40% of ts's span."""
    return window if window is not None else (ts[0] + 0.6 * (ts[-1] - ts[0]), ts[-1])


def fit_decay(ts, values, mode: str, scale_index: int, window: tuple | None) -> DecayFit:
    """Fit log(values) against the regressor appropriate for the mode.

    Exponential mode regresses on t itself; power and log modes regress
    on the log of the iterated logarithm at scale_index, so the fitted
    exponent is directly comparable with an expansion order's rate.  A
    window of None is ``decay_fit_window``'s default.  Either window keeps
    only samples above the noise floor: 100 machine epsilons relative to
    the first sample, which stands in for the size of the quantity whose
    cancellation produced the remainder.  Fewer than 3 such samples raise
    SparseFitWindow; a non-finite value anywhere raises ValueError.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape or ts.ndim != 1 or ts.size == 0:
        raise ValueError("ts and values must be matching nonempty 1-d arrays")
    if not np.isfinite(values).all():
        raise ValueError("fit_decay: a sample value is not finite")
    floor = 100.0 * np.finfo(float).eps * values[0]
    lo, hi = decay_fit_window(ts, window)
    mask = (ts >= lo) & (ts <= hi) & (values > floor) & (values > 0)
    if int(mask.sum()) < 3:
        raise SparseFitWindow("fewer than 3 usable samples in the fit window")
    tw = ts[mask]
    if mode == "exponential":
        x = tw
    elif mode in ("power", "log"):
        if scale_index < 0:
            raise ValueError("scale_index must be >= 0")
        x = ladder_eval(scale_index, tw)[:, scale_index + 1]
    else:
        raise ValueError(f"unknown mode {mode!r}")
    y = np.log(values[mask])
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(exponent=float(-slope), r_squared=r2, window=(float(tw[0]), float(tw[-1])))


# ---------------------------------------------------------------------------
# Free-constant recovery

_KERNEL_FIT_SAMPLES = 64


def fit_kernel_constants(
    traj: Trajectory,
    expansion: Expansion,
    k: int,
    window: tuple,
) -> np.ndarray:
    """Least-squares coefficients of order k's kernel modes.

    Fits y(t) - (partial sum through order k) against the homogeneous
    modes attached to order k, at 64 evenly spaced times of a window;
    choose the window late enough that orders beyond k are negligible
    relative to the modes.
    """
    order = expansion.orders[k - 1]
    modes = order.kernel
    if not modes:
        return np.zeros(0, dtype=complex)
    lo, hi = window
    if not (traj.t0 <= lo < hi <= traj.t1):
        raise ValueError("window must lie inside the trajectory span")
    ts = np.linspace(lo, hi, _KERNEL_FIT_SAMPLES)
    # one row per (time, component), time-major
    resid = traj.sample(ts) - eval_partial_sum(expansion, k, ts)
    rows = np.stack([mode.eval(ts).reshape(-1) for mode in modes], axis=1)
    coeffs, *_ = np.linalg.lstsq(rows, resid.reshape(-1), rcond=None)
    return coeffs
