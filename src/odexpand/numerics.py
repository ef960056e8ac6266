"""Numerical verification tools: integration, decay fits, bounds.

Everything here treats the symbolic layer as a black box that can be
evaluated pointwise.  The checks are deliberately independent of the
construction: trajectories come from an adaptive Runge-Kutta run and
decay rates from least-squares fits in the appropriate log coordinates.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

import numpy as np

from .engine import Expansion, ProblemSpec, eval_partial_sum
from .expsum import snap_float
from .ladder import exp_zero, iter_log
from .logpower import LogPowerSum, row_norms
from .rk45 import Trajectory, integrate_rhs

__all__ = [
    "DecayFit",
    "SmallnessCertificate",
    "decay_envelope_constant",
    "default_fit_window",
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
    """Callable y -> -A y + sum of multilinear terms: the autonomous field.

    The forcing is not part of it; ``integrate`` evaluates it once per step
    at all stage times.
    """
    neg_A = -spec.matrix  # (-A) @ y is -(A @ y) bit for bit
    maps = spec.maps

    def field(y):
        out = neg_A @ y
        for g in maps:
            out += g(*([y] * g.arity))
        return out

    return field


def _forcing_domain_start(spec: ProblemSpec) -> float:
    """Smallest time at which every forcing term can be evaluated."""
    lo = -math.inf
    for _, term in spec.forcing:
        if isinstance(term, LogPowerSum):
            lo = max(lo, exp_zero(term.depth + 1))
    return lo


def integrate(
    spec: ProblemSpec,
    y0,
    t_span,
    rel_tol: float = 1e-10,
    abs_tol: float = 1e-12,
) -> Trajectory:
    """Integrate the problem's ODE over t_span.

    The field comes from ``make_rhs``; the forcing records are the
    problem's forcing terms, each evaluated at a whole stack of times.
    """
    lo = _forcing_domain_start(spec)
    if t_span[0] <= lo:
        raise ValueError(
            f"t_span starts at {t_span[0]} but the forcing is only defined for t > {lo}"
        )
    terms = [term for _, term in spec.forcing]

    def forcing(ts):
        return [term.eval(ts) for term in terms]

    return integrate_rhs(make_rhs(spec), forcing, y0, t_span, rel_tol, abs_tol)


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


def decay_envelope_constant(A: np.ndarray, t_grid=None) -> float:
    """Smallest observed C with |exp(-t A)| <= C exp(-lambda_1 t / 2).

    The envelope with half the slowest rate always decays, so the sup is
    attained on a bounded window; the default grid covers it generously.
    """
    A = np.asarray(A, dtype=complex)
    lam1 = min(np.linalg.eigvals(A).real)
    if lam1 <= 0:
        raise ValueError("matrix must have spectrum in the open right half plane")
    if t_grid is None:
        # |exp(-tA)| exp(lam1 t/2) <= poly(t) exp(-lam1 t/2): dead past ~80/lam1.
        t_grid = np.linspace(0.0, 80.0 / lam1, 641)
    norms = matrix_exp_norm(A, t_grid)
    return float(np.max(norms * np.exp(0.5 * lam1 * np.asarray(t_grid))))


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
    spec: ProblemSpec, probe_radius: float, samples: int = 1024
) -> SmallnessCertificate:
    """Certify constants for the small-data decay threshold.

    The quadratic constant is estimated by probing the full nonlinearity
    along deterministic sphere directions at geometrically spaced radii
    up to probe_radius and maximising |G(x)| / |x|^2.  Each radius probes
    every direction in one batched evaluation per map.
    """
    if probe_radius <= 0:
        raise ValueError("probe_radius must be positive")
    A = spec.matrix
    lam1 = float(min(np.linalg.eigvals(A).real))
    c0 = decay_envelope_constant(A)
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


def remainder_series(traj: Trajectory, expansion: Expansion, upto: int, ts=None):
    """Norms |y(t) - partial sum| on a time grid inside the trajectory."""
    if ts is None:
        ts = traj.ts
    ts = np.asarray(ts, dtype=float)
    partial = eval_partial_sum(expansion, upto, ts)
    vals = np.array(
        [float(np.linalg.norm(traj.sample(t) - p)) for t, p in zip(ts, partial)]
    )
    return ts, vals


@dataclass(frozen=True)
class DecayFit:
    """Least-squares decay rate of a positive sample sequence.

    exponent is the fitted decay rate against the mode's natural
    regressor: t for exponential problems, log of the scale-m* iterated
    logarithm otherwise.
    """

    exponent: float
    intercept: float
    r_squared: float
    regressor: str
    window: tuple
    count: int


def default_fit_window(ts, values) -> np.ndarray:
    """Mask selecting the trailing 40% of the span, above the noise floor.

    The floor is 100 machine epsilons relative to the first sample, which
    stands in for the size of the quantity whose cancellation produced
    the remainder.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    t_lo = ts[0] + 0.6 * (ts[-1] - ts[0])
    floor = 100.0 * np.finfo(float).eps * values[0]
    return (ts >= t_lo) & (values > floor)


def fit_decay(
    ts,
    values,
    mode: str,
    scale_index: int = 0,
    window: tuple | None = None,
) -> DecayFit:
    """Fit log(values) against the regressor appropriate for the mode.

    Exponential mode regresses on t itself; power and log modes regress
    on the log of the iterated logarithm at scale_index, so the fitted
    exponent is directly comparable with an expansion order's rate.
    """
    ts = np.asarray(ts, dtype=float)
    values = np.asarray(values, dtype=float)
    if ts.shape != values.shape or ts.ndim != 1:
        raise ValueError("ts and values must be matching 1-d arrays")
    floor = 100.0 * np.finfo(float).eps * values[0] if len(values) else 0.0
    if window is None:
        mask = default_fit_window(ts, values)
    else:
        lo, hi = window
        mask = (ts >= lo) & (ts <= hi) & (values > floor)
    mask &= values > 0
    if int(mask.sum()) < 3:
        raise ValueError("fewer than 3 usable samples in the fit window")
    tw = ts[mask]
    vw = values[mask]
    if mode == "exponential":
        x = tw
        regressor = "t"
    elif mode in ("power", "log"):
        if scale_index < 0:
            raise ValueError("scale_index must be >= 0")
        x = np.array([iter_log(scale_index + 1, t) for t in tw])
        regressor = f"log(ladder[{scale_index}](t))"
    else:
        raise ValueError(f"unknown mode {mode!r}")
    y = np.log(vw)
    slope, intercept = np.polyfit(x, y, 1)
    resid = y - (slope * x + intercept)
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r2 = 1.0 if ss_tot == 0 else 1.0 - float(np.sum(resid**2)) / ss_tot
    return DecayFit(
        exponent=float(-slope),
        intercept=float(intercept),
        r_squared=r2,
        regressor=regressor,
        window=(float(tw[0]), float(tw[-1])),
        count=int(mask.sum()),
    )


# ---------------------------------------------------------------------------
# Free-constant recovery


def fit_kernel_constants(
    traj: Trajectory,
    expansion: Expansion,
    k: int,
    window: tuple,
    n_samples: int = 64,
) -> np.ndarray:
    """Least-squares coefficients of order k's kernel modes.

    Fits y(t) - (partial sum through order k) against the homogeneous
    modes attached to order k on a window; choose the window late enough
    that orders beyond k are negligible relative to the modes.
    """
    order = expansion.orders[k - 1]
    modes = order.kernel
    if not modes:
        return np.zeros(0, dtype=complex)
    lo, hi = window
    if not (traj.t0 <= lo < hi <= traj.t1):
        raise ValueError("window must lie inside the trajectory span")
    ts = np.linspace(lo, hi, n_samples)
    # one row per (time, component), time-major
    resid = np.array([traj.sample(t) for t in ts]) - eval_partial_sum(expansion, k, ts)
    rows = np.stack([mode.eval(ts).reshape(-1) for mode in modes], axis=1)
    coeffs, *_ = np.linalg.lstsq(rows, resid.reshape(-1), rcond=None)
    return coeffs
