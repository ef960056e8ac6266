"""Particular solutions of z' + A z = f for exponential-polynomial forcing.

Each forcing term p(t)*exp(nu*t) is solved independently.  Writing
z = q(t)*exp(nu*t) reduces the ODE to q' + B q = p with B = A + nu*I.
``resolvent_defect`` checks a solution with the LogPowerSum operators, on
the depth-0 ladder views of the sums (``logpower.ladder_view``).

Non-resonant (B invertible): q = sum_k (-1)^k B^(-k-1) p^(k), computed by
back-substitution in the polynomial degree.

Resonant (B singular): the polynomial degree is raised by r and the stacked
linear system over all coefficients is solved by minimum-norm least squares,
raising r until the system is consistent.  The minimum-norm solution is
orthogonal to the coefficient vectors of the homogeneous polynomial
solutions, so the returned particular solution carries no component along
the kernel modes at that exponent.  The solve only reports which exponents
it treated as resonant.  The kernel modes come from ``homogeneous_modes``,
which ``ProblemSpec.clusters`` calls once per cluster of A's spectrum,
whatever the forcing, so callers can fit their free constants against data.

Which terms are resonant is decided for all of f at once: one stacked
``np.linalg.svd`` call over every term's B, each slice equal bit for bit
to the call on that B alone.

The non-resonant solve is the only code in the package that uses scipy:
it factors B with ``scipy.linalg.lu_factor`` (LAPACK getrf) and
back-substitutes each degree with LAPACK getrs, got once per B from
``scipy.linalg.get_lapack_funcs``, the routine ``lu_solve`` wraps.  It
imports ``scipy.linalg`` when it runs, so runs that never reach it load
no scipy.  It stays on scipy because exponential-mode resonant expansions
amplify rounding differences by about 1e6 on orders >= 3: with
``np.linalg.solve`` here, an order-5 coefficient of the benchmark's
exp-resonant problem 015 moves by 2.8e-13 of its order's largest, against
a 5.2e-14 bound.  The factorization stays bit for bit the same until that
check separates the rounding pattern from the maths.
"""

from __future__ import annotations

import numpy as np

from .expsum import ExpPolySum
from .logpower import LogPowerSum, ladder_view, time_derivative, trim_small_logpower

__all__ = [
    "resolvent_solve_exp",
    "resolvent_defect",
    "homogeneous_modes",
]

# B counts as resonant when its smallest singular value is below this
# fraction of the largest; resonant eigenvalue clusters use the same cut.
SINGULAR_REL = 1e-8
# Consistency residual bound for the stacked resonant solve, relative to
# the forcing magnitude.
RESIDUAL_REL = 1e-10


def _solve_nonresonant(B: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Back-substitute q_j = B^{-1}(p_j - (j+1) q_{j+1}) from the top degree.

    B is factored once by ``scipy.linalg.lu_factor``.  Each degree is then
    one call of LAPACK getrs, the routine ``scipy.linalg.lu_solve`` calls,
    without that function's per-call wrappers and input check; a solution
    that is not finite raises ValueError, as a non-finite right-hand side
    made ``lu_solve`` do.
    """
    import scipy.linalg

    lu, piv = scipy.linalg.lu_factor(B)
    (getrs,) = scipy.linalg.get_lapack_funcs(("getrs",), (lu, p))
    d = p.shape[0]
    q = np.zeros_like(p)
    for j in range(d - 1, -1, -1):
        rhs = p[j].copy()
        if j + 1 < d:
            rhs -= (j + 1) * q[j + 1]
        q[j], info = getrs(lu, piv, rhs, overwrite_b=1)
        if info != 0:
            raise ValueError(f"LAPACK getrs rejected its argument {-info}")
        if not np.isfinite(q[j]).all():
            raise ValueError("non-finite solution of a non-resonant resolvent solve")
    return q


def _stacked_matrix(B: np.ndarray, nrows: int) -> np.ndarray:
    """Matrix of q -> coefficients of q' + B q on degree-(nrows-1) polynomials."""
    n = B.shape[0]
    M = np.zeros((nrows * n, nrows * n), dtype=complex)
    for j in range(nrows):
        M[j * n : (j + 1) * n, j * n : (j + 1) * n] = B
        if j + 1 < nrows:
            M[j * n : (j + 1) * n, (j + 1) * n : (j + 2) * n] = (j + 1) * np.eye(n)
    return M


def _solve_resonant(B: np.ndarray, p: np.ndarray, scale: float) -> np.ndarray:
    """Least-squares particular polynomial with raised degree.

    Raises the degree bump r from 1 up to n until the stacked system is
    consistent to RESIDUAL_REL * scale.
    """
    n = B.shape[0]
    d = p.shape[0] - 1
    bound = RESIDUAL_REL * max(scale, 1e-30)
    for r in range(1, n + 1):
        nrows = d + r + 1
        M = _stacked_matrix(B, nrows)
        rhs = np.zeros(nrows * n, dtype=complex)
        rhs[: (d + 1) * n] = p.reshape(-1)
        x, *_ = np.linalg.lstsq(M, rhs, rcond=None)
        residual = float(np.linalg.norm(M @ x - rhs))
        if residual <= bound:
            return x.reshape(nrows, n)
    raise RuntimeError(
        "resonant solve stayed inconsistent up to the dimension cap; "
        f"residual bound was {bound:.3e}"
    )


def _generalized_nullspace(B: np.ndarray, cut: float) -> list[tuple[np.ndarray, int]]:
    """Orthonormal basis of the generalized nullspace, tagged by stage.

    A stage-s vector xi satisfies B^s xi = 0 to working precision.  The
    space is grown by preimages: null(B) first, then at each stage the
    nullspace of B projected off what is already found.  Every step is one
    SVD of an n-by-n matrix, matrix powers never appear, so the cut keeps
    the same meaning as in the resonance detector.  Eigenvalue-based
    clustering would not do here: a defective zero cluster of index k
    scatters its computed eigenvalues over a radius of order norm(B) times
    eps^(1/k), far above any fixed cut.
    """
    n = B.shape[0]
    basis: list[tuple[np.ndarray, int]] = []
    Q = np.zeros((n, 0), dtype=complex)
    for stage in range(1, n + 1):
        M = B - Q @ (Q.conj().T @ B)
        _, sv, Vh = np.linalg.svd(M)
        k = int(np.sum(sv <= cut))
        if k <= Q.shape[1]:
            break
        G = Vh[n - k :].conj().T
        # Q's span sits inside G's, so the projected frame has singular
        # values 1 on the new directions and 0 on the old ones.
        W = G - Q @ (Q.conj().T @ G)
        Uw, _, _ = np.linalg.svd(W)
        fresh = Uw[:, : k - Q.shape[1]]
        for i in range(fresh.shape[1]):
            basis.append((fresh[:, i], stage))
        Q = np.concatenate([Q, fresh], axis=1)
        if Q.shape[1] == n:
            break
    return basis


def resolvent_solve_exp(A: np.ndarray, f: ExpPolySum) -> tuple[ExpPolySum, list[complex]]:
    """Particular solution of z' + A z = f, and the exponents solved as resonant.

    Returns (z, resonant).  z solves the ODE exactly term by term; resonant
    lists, in f's order, the exponents of f that hit the spectrum of -A
    (empty when none does).  Along the homogeneous modes at those exponents
    (``homogeneous_modes``) the particular solution carries zero constants.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    if A.shape != (n, n):
        raise ValueError("A must be square")
    if f.dim != n:
        raise ValueError(f"forcing dimension {f.dim} != matrix dimension {n}")
    scale = f.sup_norm()
    raw: list[tuple[complex, np.ndarray]] = []
    resonant: list[complex] = []
    Bs = A + f.nus[:, None, None] * np.eye(n)
    sv = np.linalg.svd(Bs, compute_uv=False)
    invertible = sv[:, -1] > SINGULAR_REL * np.maximum(sv[:, 0], 1.0)
    for (nu, p), B, ok in zip(f.items(), Bs, invertible.tolist()):
        if ok:
            q = _solve_nonresonant(B, p)
        else:
            q = _solve_resonant(B, p, scale)
            resonant.append(nu)
        raw.append((nu, q))
    return ExpPolySum.build(n, raw), resonant


def homogeneous_modes(A: np.ndarray, nu: complex) -> list[ExpPolySum]:
    """Decaying homogeneous solutions p(t)*exp(nu t) of z' + A z = 0.

    Nonempty exactly when -nu is an eigenvalue of A (to working precision):
    one mode exp(-tB) xi per generalized-nullspace direction xi of
    B = A + nu I, its series cut at the vector's nilpotency stage.  So there
    are as many modes as the algebraic multiplicity of -nu, the count of
    free constants a resonant solve leaves undetermined.
    """
    A = np.asarray(A, dtype=complex)
    n = A.shape[0]
    B = A + nu * np.eye(n)
    sv = np.linalg.svd(B, compute_uv=False)
    if sv[-1] > SINGULAR_REL * max(sv[0], 1.0):
        return []
    modes = []
    for xi, stage in _generalized_nullspace(B, SINGULAR_REL * max(float(sv[0]), 1.0)):
        rows = np.zeros((stage, n), dtype=complex)
        v = xi.astype(complex)
        fact = 1.0
        for j in range(stage):
            rows[j] = ((-1) ** j / fact) * v
            v = B @ v
            fact *= j + 1
        modes.append(ExpPolySum.build(n, [(nu, rows)]))
    return modes


def resolvent_defect(A: np.ndarray, f: ExpPolySum, z: ExpPolySum) -> LogPowerSum:
    """z' + A z - f on the depth-0 ladder views of z and f: the canonical
    zero sum, not a cloud of 1e-16 terms, when z solves the ODE, since
    rounding dust below RESIDUAL_REL of the data's scale is trimmed."""
    v = ladder_view(z)
    raw = time_derivative(v) + v.apply_matrix(A) - ladder_view(f)
    return trim_small_logpower(raw, RESIDUAL_REL * max(f.sup_norm(), z.sup_norm()))
