"""Finite sums of complex powers of the ladder components.

A ``LogPowerSum`` of depth k stores

    p(t) = sum_alpha  exp(t)^a(-1) * t^a(0) * (log t)^a(1) * ... * L_k(t)^a(k) * xi_alpha

with complex exponent vectors alpha = (a(-1), ..., a(k)) and coefficient
vectors xi in C^n.  The sum is two arrays in canonical term order: the
exponents ``alphas`` (K, k+2) and the coefficients ``xis`` (K, n).  Every
operator below maps them to new raw arrays and canonicalizes once through
``from_arrays``.

Complex powers are taken through the principal branch, x^a = exp(a*log x).
With logs = ladder_eval(k, t) = (t, log t, ..., log L_k(t)) the value is
the one product exp(alphas @ logs) @ xis, which is why evaluation requires
every ladder component to be strictly positive.

Three linear operators drive the power/log recursions:

    weight_op(j, p)     multiply each term by its exponent a(j)
    descent_op(p)       sum_j z_0^-1 ... z_j^-1 * weight_op(j, p); together
                        with weight_op(-1) it represents d/dt on composites
    shifted_inverse(A, p)  apply (A + a(-1) I)^-1 to each coefficient
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expsum import TRIM_REL, group_keys, snap_scalar
from .ladder import exp_zero, ladder_eval
from .multilinear import MultiLinearMap

__all__ = [
    "LogPowerSum",
    "exponent_in_class",
    "weight_op",
    "descent_op",
    "time_derivative",
    "shifted_inverse",
    "ShiftedInverseCache",
    "mul_apply_logpower",
    "trim_small_logpower",
]


def row_norms(rows: np.ndarray) -> np.ndarray:
    """Euclidean norm of each row of a (K, n) array.

    Each row is summed as ``np.linalg.norm`` sums one vector (a dot product
    of the real parts plus one of the imaginary parts), so every entry is
    bit for bit that row's norm, from one batched product per part.
    """
    parts = (rows.real, rows.imag) if np.iscomplexobj(rows) else (rows,)
    sq = np.zeros(rows.shape[0])
    for x in parts:
        sq += (x[:, None, :] @ x[:, :, None])[:, 0, 0]
    return np.sqrt(sq)


def exponent_in_class(alpha: Sequence[complex], m: int, mu: float, tol: float = 1e-9) -> bool:
    """Exponent-vector class test: a(j) imaginary for j < m, Re a(m) = mu."""
    alpha = tuple(alpha)
    k = len(alpha) - 2
    if not -1 <= m <= k:
        raise ValueError(f"class index m={m} incompatible with depth {k}")
    for j in range(-1, m):
        if abs(alpha[j + 1].real) > tol:
            return False
    return abs(alpha[m + 1].real - mu) <= tol * max(1.0, abs(mu))


@dataclass(frozen=True)
class LogPowerSum:
    """Canonical ladder-power sum; treat instances as immutable.

    ``alphas`` (K, depth+2) holds the exponent vectors and ``xis`` (K, dim)
    the coefficients, both complex and in canonical order; every instance
    comes out of from_arrays.
    """

    dim: int
    depth: int
    alphas: np.ndarray
    xis: np.ndarray

    @classmethod
    def build(
        cls, dim: int, depth: int, raw: Iterable[tuple[Sequence[complex], np.ndarray]]
    ) -> "LogPowerSum":
        """Canonical sum of (exponent vector, coefficient) pairs; see from_arrays."""
        if depth < -1:
            raise ValueError("depth must be >= -1")
        alphas, xis = [], []
        for alpha, xi in raw:
            alpha = tuple(alpha)
            if len(alpha) != depth + 2:
                raise ValueError(
                    f"exponent vector length {len(alpha)} != depth+2 = {depth + 2}"
                )
            vec = np.asarray(xi, dtype=complex).reshape(-1)
            if vec.shape[0] != dim:
                raise ValueError(f"coefficient length {vec.shape[0]} != dim {dim}")
            alphas.append(alpha)
            xis.append(vec)
        return cls.from_arrays(
            dim,
            depth,
            np.array(alphas, dtype=complex).reshape(len(alphas), depth + 2),
            np.array(xis, dtype=complex).reshape(len(xis), dim),
        )

    @classmethod
    def from_arrays(
        cls, dim: int, depth: int, alphas: np.ndarray, xis: np.ndarray
    ) -> "LogPowerSum":
        """Canonicalize raw terms: alphas (R, depth+2) and xis (R, dim), complex.

        Exponents are snapped onto the grid; rows whose snapped exponents
        agree are summed in raw order (the first row, then each later row
        added to it); terms are sorted by (Re a(-1), Im a(-1), Re a(0), ...);
        terms with zero norm or a norm below TRIM_REL times the largest are
        dropped.  The norms are taken row-wise and may differ from a
        per-vector ``np.linalg.norm`` in the last bit, which only matters
        for a term within an ulp of the trim line.
        """
        alphas = np.asarray(alphas, dtype=complex)
        xis = np.asarray(xis, dtype=complex)
        count = alphas.shape[0]
        if count == 0:
            return cls(dim, depth, np.zeros((0, depth + 2), complex), np.zeros((0, dim), complex))
        uniq, first, group = group_keys(alphas)
        later = np.ones(count, dtype=bool)
        later[first] = False
        acc = xis[first]
        np.add.at(acc, group[later], xis[later])
        norms = np.linalg.norm(acc, axis=1)
        keep = (norms > 0.0) & (norms >= TRIM_REL * norms.max())
        return cls(dim, depth, uniq[keep], acc[keep])

    @classmethod
    def zero(cls, dim: int, depth: int) -> "LogPowerSum":
        return cls.build(dim, depth, [])

    def _canon(self, alphas: np.ndarray, xis: np.ndarray) -> "LogPowerSum":
        """Canonical sum of raw terms at this sum's dim and depth."""
        return LogPowerSum.from_arrays(self.dim, self.depth, alphas, xis)

    # -- queries ---------------------------------------------------------

    def items(self) -> list[tuple[tuple[complex, ...], np.ndarray]]:
        """(exponent tuple, coefficient row) pairs in canonical order."""
        return list(zip(map(tuple, self.alphas.tolist()), self.xis))

    @cached_property
    def terms(self) -> Mapping[tuple[complex, ...], np.ndarray]:
        """Read-only {exponent tuple: coefficient row} view, for key lookups."""
        return MappingProxyType(dict(self.items()))

    def is_zero(self) -> bool:
        return self.alphas.shape[0] == 0

    def term_count(self) -> int:
        return self.alphas.shape[0]

    def sup_norm(self) -> float:
        """Largest coefficient row norm over all terms."""
        return float(row_norms(self.xis).max(initial=0.0))

    def in_class(self, m: int, mu: float, tol: float = 1e-9) -> bool:
        """Every exponent vector sits in the (m, mu) class."""
        return all(exponent_in_class(a, m, mu, tol) for a in self.alphas.tolist())

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "LogPowerSum") -> "LogPowerSum":
        """Sum at the larger depth of the two; the shallower one is embedded."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        depth = max(self.depth, other.depth)
        a, b = self.embed(depth), other.embed(depth)
        alphas = np.concatenate([a.alphas, b.alphas])
        return LogPowerSum.from_arrays(self.dim, depth, alphas, np.concatenate([a.xis, b.xis]))

    def __sub__(self, other: "LogPowerSum") -> "LogPowerSum":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "LogPowerSum":
        return self._canon(self.alphas, a * self.xis)

    def apply_matrix(self, A: np.ndarray) -> "LogPowerSum":
        # One matrix-vector product per row, which matches A @ xi bit for
        # bit; a single xis @ A.T does not.
        A = np.asarray(A, dtype=complex)
        return self._canon(self.alphas, (A @ self.xis[:, :, None])[:, :, 0])

    def conjugate(self) -> "LogPowerSum":
        return self._canon(self.alphas.conj(), self.xis.conj())

    def embed(self, depth: int) -> "LogPowerSum":
        """Zero-pad exponent vectors up to a larger depth."""
        if depth < self.depth:
            raise ValueError("cannot reduce depth by embedding")
        if depth == self.depth:
            return self
        alphas = np.pad(self.alphas, ((0, 0), (0, depth - self.depth)))
        return LogPowerSum.from_arrays(self.dim, depth, alphas, self.xis)

    def eval(self, t) -> np.ndarray:
        """Value at time t, or at each time of a 1-D array (one row per time).

        Every time must lie above the depth+1 ladder threshold.  The guard
        keeps every component comfortably inside the positive range so
        principal-branch powers are safe; exp(t) itself is never
        materialized (the a(-1) power contributes a(-1)*t to the log).
        Both products are batched matrix-vector products, one per time,
        so every row is bit-identical to the value at that time alone;
        one (T, K) matrix product would round differently.
        """
        ts = np.asarray(t, dtype=float)
        times = ts.reshape(-1)
        gate = exp_zero(self.depth + 1)
        for x in times.tolist():
            if not x > gate:
                raise ValueError(
                    f"t = {x!r} below the depth-{self.depth} evaluation threshold {gate!r}"
                )
        logs = ladder_eval(self.depth, times)
        e = np.exp(np.matmul(self.alphas, logs[:, :, None]))  # (T, K, 1)
        out = np.matmul(self.xis.T, e)[:, :, 0]
        return out if ts.ndim else out[0]

    # -- serialization ---------------------------------------------------

    def to_records(self) -> list[dict]:
        return [
            {"alpha": [[a.real, a.imag] for a in alpha], "xi": [[z.real, z.imag] for z in xi]}
            for alpha, xi in self.items()
        ]


def weight_op(j: int, p: LogPowerSum) -> LogPowerSum:
    """Multiply each term by its exponent a(j); kills terms with a(j) = 0."""
    if not -1 <= j <= p.depth:
        raise ValueError(f"component index {j} outside depth {p.depth}")
    return p._canon(p.alphas, p.alphas[:, j + 1, None] * p.xis)


def descent_op(p: LogPowerSum) -> LogPowerSum:
    """sum_{j=0}^{depth} z_0^-1 ... z_j^-1 * weight_op(j, p).

    Sends the decay class (m, mu) with m = 0 into (0, mu - 1).  Raw terms
    run term by term and, within a term, over j, skipping a(j) = 0.
    """
    if p.depth < 0:
        raise ValueError("descent needs at least the power scale (depth >= 0)")
    k = p.depth + 1
    # Row j lowers the exponents of components 0..j by one.
    lower = np.zeros((k, k + 1))
    lower[:, 1:] = np.tril(np.ones((k, k)))
    weights = p.alphas[:, 1:]
    live = weights != 0
    alphas = p.alphas[:, None, :] - lower
    xis = weights[:, :, None] * p.xis[:, None, :]
    return p._canon(alphas[live], xis[live])


class ShiftedInverseCache:
    """Checked shifted matrices A + i*omega*I, memoized per imaginary shift.

    A single cache is shared across one expansion run.  It caches one
    singularity check per distinct shift, not a factorization: each solve
    is one ``np.linalg.solve`` on the cached matrix, which for the small
    systems here costs less than reusing LU factors would.
    """

    def __init__(self, A: np.ndarray):
        self.A = np.asarray(A, dtype=complex)
        n = self.A.shape[0]
        if self.A.shape != (n, n):
            raise ValueError("A must be square")
        self._n = n
        self._cache: dict[complex, np.ndarray] = {}

    def _shifted(self, shift: complex) -> np.ndarray:
        hit = self._cache.get(shift)
        if hit is not None:
            return hit
        B = self.A + shift * np.eye(self._n)
        sv = np.linalg.svd(B, compute_uv=False)
        if sv[-1] <= 1e-12 * max(sv[0], 1.0):
            raise ValueError(
                f"A + ({shift})I is numerically singular; "
                "the dissipativity assumption excludes this"
            )
        self._cache[shift] = B
        return B

    def solve(self, alpha_m1: complex, xi: np.ndarray) -> np.ndarray:
        if abs(alpha_m1.real) > 1e-12:
            raise ValueError(
                f"exponent a(-1) = {alpha_m1} is not purely imaginary"
            )
        return np.linalg.solve(self._shifted(snap_scalar(alpha_m1)), xi)


def shifted_inverse(
    A: np.ndarray, p: LogPowerSum, cache: ShiftedInverseCache | None = None
) -> LogPowerSum:
    """Apply (A + a(-1) I)^-1 termwise; inverts A + weight_op(-1)."""
    if cache is None:
        cache = ShiftedInverseCache(A)
    if cache.A.shape[0] != p.dim:
        raise ValueError("matrix/operand dimension mismatch")
    solved = [cache.solve(a, v) for a, v in zip(p.alphas[:, 0].tolist(), p.xis)]
    return p._canon(p.alphas, np.array(solved, dtype=complex).reshape(-1, p.dim))


def time_derivative(p: LogPowerSum) -> LogPowerSum:
    """Symbolic d/dt of t -> p(ladder(t)): weight_op(-1, p) + descent_op(p)."""
    return weight_op(-1, p) + descent_op(p)


def mul_apply_logpower(
    G: MultiLinearMap, args: Sequence[LogPowerSum], weight: float = 1.0
) -> LogPowerSum:
    """Push m LogPowerSums through an m-linear map (exponent vectors add).

    Every combination of one term per argument is formed at once: argument
    s is laid along axis s, exponent vectors add by broadcasting from left
    to right, and one ``G.batch`` call gives every coefficient.  The raw
    terms come out in ``itertools.product`` order over the arguments'
    terms, and ``G.batch`` matches ``G(...)`` bit for bit, so with weight 1
    the result is bit-identical to the term-by-term loop through ``build``.
    Any other weight multiplies the raw coefficients before they are
    canonicalized.
    """
    if len(args) != G.arity:
        raise ValueError(f"map arity {G.arity} != argument count {len(args)}")
    for a in args:
        if a.dim != G.dim:
            raise ValueError("dimension mismatch between map and arguments")
    depth = max(a.depth for a in args)
    m = len(args)
    alpha, xis = None, []
    for s, a in enumerate(args):
        a = a.embed(depth)
        shape = [1] * m
        shape[s] = a.term_count()
        keys = a.alphas.reshape(shape + [depth + 2])
        alpha = keys if alpha is None else alpha + keys
        xis.append(a.xis.reshape(shape + [G.dim]))
    xi = G.batch(*xis)
    if weight != 1.0:
        xi *= weight
    return LogPowerSum.from_arrays(
        G.dim, depth, alpha.reshape(-1, depth + 2), xi.reshape(-1, G.dim)
    )


def trim_small_logpower(p: LogPowerSum, scale: float, rel: float = TRIM_REL) -> LogPowerSum:
    """Copy of p without terms whose coefficient norm is below rel*scale.

    Canonicalization trims against the sum's own largest term, which says
    nothing when the whole sum is rounding dust; residual checks supply
    the scale of the data that produced the residual.
    """
    keep = row_norms(p.xis) >= rel * scale
    return p._canon(p.alphas[keep], p.xis[keep])

