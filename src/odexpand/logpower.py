"""Finite sums of complex powers of the ladder components.

A ``LogPowerSum`` of depth k stores

    p(t) = sum_alpha  exp(t)^a(-1) * t^a(0) * (log t)^a(1) * ... * L_k(t)^a(k) * xi_alpha

with complex exponent vectors alpha = (a(-1), ..., a(k)) and coefficient
vectors xi in C^n.  The sum is two arrays in canonical term order: the
exponents ``alphas`` (K, k+2) and the coefficients ``xis`` (K, n).
``from_pieces`` is the one canonicalizer: every operator below maps the
arrays to new raw ones and passes them to it once (``+`` passes both sums
as pieces).  The product ``mul_apply_logpower`` returns its raw arrays
instead, so that the engine can sum the products, the forcing and the
descent term of one order with a single ``from_pieces``.

Complex powers are taken through the principal branch, x^a = exp(a*log x).
With logs = ladder_eval(k, t) = (t, log t, ..., log L_k(t)) the value is
the one product exp(alphas @ logs) @ xis, which is why evaluation requires
every ladder component to be strictly positive.

That arithmetic runs in two forms, split by traffic as
``MultiLinearMap``'s ``batch`` and ``kernel`` are.  ``eval`` takes a time
or an array of times, checks each against the domain threshold and forms
the two products with numpy; it serves grids (remainders, kernel fits, the
realify residue).  ``emit`` writes the sum at one time as straight-line
Python statements on floats, with no check and no numpy call; the ODE's
generated right-hand side (``numerics.make_rhs``) splices them in, so the
integrator evaluates the forcing at every stage time inside its one
rhs(t, y) call, after one ``eval`` at the start of the span has checked
the domain.  ``ExpPolySum.emit`` is the exponential-mode counterpart, so a
step makes no numpy call in any mode.  Both forms take the ladder from the
same math.log chain.  On one term with real exponents they agree bit for
bit; elsewhere eval's BLAS products may fuse or reorder and differ in the
last bits.

An exponential sum is the depth-0 ladder sum with alpha = (nu, j).
``ladder_view`` is the one bridge from ``ExpPolySum``, so realify, the term
printer and the exponential defect check share the operators below.

Three linear operators drive the power/log recursions:

    weight_op(j, p)     multiply each term by its exponent a(j)
    descent_op(p)       sum_j z_0^-1 ... z_j^-1 * weight_op(j, p); together
                        with weight_op(-1) it represents d/dt on composites
    shifted_inverse(p, cache)  apply (A + a(-1) I)^-1 to each coefficient, in
                        one stacked solve; the cache holds A
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .expsum import TRIM_REL, ExpPolySum, group_keys, running_sum, snap_scalar
from .ladder import exp_zero, ladder_eval
from .multilinear import MultiLinearMap

__all__ = [
    "LogPowerSum",
    "ladder_view",
    "weight_op",
    "descent_op",
    "time_derivative",
    "shifted_inverse",
    "ShiftedInverseCache",
    "mul_apply_logpower",
    "trim_small_logpower",
]

# Rows gathered per block in mul_apply_logpower.  With the 17 entries of a
# symmetrized cubic map of dim 3, a block's G.batch temporaries stay near
# 70 kB each.  Gathering a whole order at once (2,504 rows at order 10 of
# the power-expand benchmark's problem 0) raises the traced peak of that
# expansion from 1.0 to 1.9 MB; blocks of 256 rows took it to 0.8 MB, but
# made twice the G.batch calls at order 16.
_ROWS = 512

# The (m, mu) class test's tolerance on the real parts of exponents: within
# CLASS_TOL of 0 below component m, and of mu, relative to max(1, |mu|), at m.
CLASS_TOL = 1e-9


def _stack_rows(
    pieces: Sequence[tuple[np.ndarray, np.ndarray]], dim: int, depth: int
) -> tuple[np.ndarray, np.ndarray]:
    """The (alphas, xis) pieces stacked in order, exponent vectors zero-padded
    to depth+2 entries."""
    count = sum(a.shape[0] for a, _ in pieces)
    alphas = np.zeros((count, depth + 2), dtype=complex)
    xis = np.empty((count, dim), dtype=complex)
    lo = 0
    for a, x in pieces:
        if a.shape[1] > depth + 2:
            raise ValueError(f"piece of depth {a.shape[1] - 2} above depth {depth}")
        alphas[lo : lo + a.shape[0], : a.shape[1]] = a
        xis[lo : lo + a.shape[0]] = x
        lo += a.shape[0]
    return alphas, xis


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


@dataclass(frozen=True)
class LogPowerSum:
    """Canonical ladder-power sum; treat instances as immutable.

    ``alphas`` (K, depth+2) holds the exponent vectors and ``xis`` (K, dim)
    the coefficients, both complex and in canonical order; every instance
    comes out of from_pieces, except ``ladder_view`` of an exponential sum,
    which wraps its stored rows (already canonical) as they are.
    """

    dim: int
    depth: int
    alphas: np.ndarray
    xis: np.ndarray

    @classmethod
    def build(
        cls, dim: int, depth: int, raw: Iterable[tuple[Sequence[complex], np.ndarray]]
    ) -> "LogPowerSum":
        """Canonical sum of (exponent vector, coefficient) pairs; see from_pieces."""
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
        piece = (
            np.array(alphas, dtype=complex).reshape(len(alphas), depth + 2),
            np.array(xis, dtype=complex).reshape(len(xis), dim),
        )
        return cls.from_pieces(dim, depth, [piece])

    @classmethod
    def from_pieces(
        cls, dim: int, depth: int, pieces: Iterable[tuple[np.ndarray, np.ndarray]]
    ) -> "LogPowerSum":
        """Canonical sum of raw pieces, each an (alphas, xis) pair of complex
        arrays: alphas (R, d+2) with d <= depth, and xis (R, dim).

        The pieces are stacked in the order given, exponent vectors
        zero-padded to depth+2 entries.  Exponents are snapped onto the
        grid; rows whose snapped exponents agree are summed in stacked order
        (the first row, then each later row added to it); terms are sorted
        by (Re a(-1), Im a(-1), Re a(0), ...); terms with zero norm or a
        norm below TRIM_REL times the largest are dropped; a coefficient
        that is not finite, or whose norm overflows, raises ValueError.  The
        norms are taken row-wise and may differ from a per-vector
        ``np.linalg.norm`` in the last bit, which only matters for a term
        within an ulp of the trim line.
        """
        alphas, xis = _stack_rows(list(pieces), dim, depth)
        count = alphas.shape[0]
        if count == 0:
            return cls(dim, depth, alphas, xis)
        uniq, first, group = group_keys(alphas)
        later = np.ones(count, dtype=bool)
        later[first] = False
        acc = xis[first]
        np.add.at(acc, group[later], xis[later])
        with np.errstate(over="ignore"):
            norms = np.linalg.norm(acc, axis=1)
        top = norms.max()
        if not math.isfinite(top):
            raise ValueError(f"non-finite coefficient in a LogPowerSum (largest norm {top})")
        keep = (norms > 0.0) & (norms >= TRIM_REL * top)
        return cls(dim, depth, uniq[keep], acc[keep])

    @classmethod
    def zero(cls, dim: int, depth: int) -> "LogPowerSum":
        return cls.build(dim, depth, [])

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

    def in_class(self, m: int, mu: float) -> bool:
        """Every exponent vector sits in the (m, mu) class: a(j) imaginary for
        j < m and Re a(m) = mu, within CLASS_TOL.  The zero sum is in every
        class.  An exponential sum's ladder view is in class (-1, Re nu)."""
        if not -1 <= m <= self.depth:
            raise ValueError(f"class index m={m} incompatible with depth {self.depth}")
        re = self.alphas.real
        return not (abs(re[:, : m + 1]) > CLASS_TOL).any() and bool(
            (abs(re[:, m + 1] - mu) <= CLASS_TOL * max(1.0, abs(mu))).all()
        )

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "LogPowerSum") -> "LogPowerSum":
        """Sum at the larger depth of the two; the shallower one is zero-padded."""
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        pieces = [(self.alphas, self.xis), (other.alphas, other.xis)]
        return LogPowerSum.from_pieces(self.dim, max(self.depth, other.depth), pieces)

    def __sub__(self, other: "LogPowerSum") -> "LogPowerSum":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "LogPowerSum":
        return LogPowerSum.from_pieces(self.dim, self.depth, [(self.alphas, a * self.xis)])

    def apply_matrix(self, A: np.ndarray) -> "LogPowerSum":
        # One matrix-vector product per row, which matches A @ xi bit for
        # bit; a single xis @ A.T does not.
        A = np.asarray(A, dtype=complex)
        xis = (A @ self.xis[:, :, None])[:, :, 0]
        return LogPowerSum.from_pieces(self.dim, self.depth, [(self.alphas, xis)])

    @property
    def domain_start(self) -> float:
        """The sum is defined for t > domain_start = exp_zero(depth + 1),
        where every ladder component through L_depth is positive."""
        return exp_zero(self.depth + 1)

    def eval(self, t) -> np.ndarray:
        """Value at time t, or at each time of a 1-D array (one row per time).

        Every time must lie above ``domain_start``.  The guard
        keeps every component comfortably inside the positive range so
        principal-branch powers are safe; exp(t) itself is never
        materialized (the a(-1) power contributes a(-1)*t to the log).
        Both products are batched matrix-vector products, one per time,
        so every row is bit-identical to the value at that time alone;
        one (T, K) matrix product would round differently.
        """
        ts = np.asarray(t, dtype=float)
        times = ts.reshape(-1)
        gate = self.domain_start
        for x in times.tolist():
            if not x > gate:
                raise ValueError(
                    f"t = {x!r} below the depth-{self.depth} evaluation threshold {gate!r}"
                )
        logs = ladder_eval(self.depth, times)
        e = np.exp(np.matmul(self.alphas, logs[:, :, None]))  # (T, K, 1)
        out = np.matmul(self.xis.T, e)[:, :, 0]
        return out if ts.ndim else out[0]

    def emit(self, p: str, namespace: dict) -> list[str]:
        """Python statements that set {p}0 ... {p}{dim-1} to the value at t.

        They read the time from the name ``t``, a Python float above
        ``domain_start``, which they do not check; every name they set
        starts with ``p``, and every value they read is bound in
        ``namespace`` under such a name.  The ladder is ladder_eval's
        chain, l0 = t and l{j+1} = log(l{j}).  For term k, {p}zr and {p}zi sum
        Re a(j) * l{j} and Im a(j) * l{j} over the nonzero parts, left to
        right, and {p}e{k} is math.exp(zr) when every exponent of the term
        is real, else cmath.exp(complex(zr, zi)).  Each output component is
        complex(re, im) of the running sums from 0.0 of xi_k * e_k over the
        terms with a nonzero coefficient there, in term order, each product
        written in float parts: (xr*er - xi*ei, xr*ei + xi*er), or
        (xr*e, xi*e) for a real e_k.  An exponent that overflows gives the
        outputs ``eval(t)`` instead, so an overflow gives np.exp's inf and
        never raises.

        One statement per (term, component) keeps the source flat for any
        number of terms; coefficients are bound by name, never written into
        the source.
        """
        namespace.update(log=math.log, exp=math.exp, cexp=cmath.exp)
        namespace[f"{p}eval"] = lambda x: self.eval(x).tolist()

        ladder = ["t"] + [f"{p}l{j}" for j in range(1, self.depth + 2)]
        exps, real = [], []
        for k, alpha in enumerate(self.alphas.tolist()):
            real.append(not any(a.imag for a in alpha))
            for part in ("real",) if real[k] else ("real", "imag"):
                products = []
                for j, a in enumerate(alpha):
                    if getattr(a, part):
                        name = f"{p}a{k}_{j}{part[0]}"
                        namespace[name] = getattr(a, part)
                        products.append(f"{name} * {ladder[j]}")
                exps += running_sum(f"{p}z{part[0]}", "0.0", products)
            e = f"{p}e{k}"
            if real[k]:
                exps.append(f"{e} = exp({p}zr)")
            else:
                exps += [f"{e} = cexp(complex({p}zr, {p}zi))", f"{e}r, {e}i = {e}.real, {e}.imag"]
        sums = []
        for i in range(self.dim):
            re, im = [], []
            for k, xi in enumerate(self.xis[:, i].tolist()):
                if not xi:
                    continue
                xr, xm, e = f"{p}x{k}_{i}r", f"{p}x{k}_{i}i", f"{p}e{k}"
                namespace[xr], namespace[xm] = xi.real, xi.imag
                if real[k]:
                    re.append(f"{xr} * {e}")
                    im.append(f"{xm} * {e}")
                else:
                    re.append(f"({xr} * {e}r - {xm} * {e}i)")
                    im.append(f"({xr} * {e}i + {xm} * {e}r)")
            sums += running_sum(f"{p}o{i}r", "0.0", re) + running_sum(f"{p}o{i}i", "0.0", im)
            sums.append(f"{p}{i} = complex({p}o{i}r, {p}o{i}i)")
        outs = "".join(f"{p}{i}, " for i in range(self.dim))
        lines = [f"{b} = log({a})" for a, b in zip(ladder, ladder[1:])]
        lines += ["try:"] + [f"    {x}" for x in exps or ["pass"]]
        lines += ["except (OverflowError, ValueError):", f"    {outs}= {p}eval(t)", "else:"]
        return lines + [f"    {x}" for x in sums]

    # -- serialization ---------------------------------------------------

    def to_records(self) -> list[dict]:
        return [
            {"alpha": [[a.real, a.imag] for a in alpha], "xi": [[z.real, z.imag] for z in xi]}
            for alpha, xi in self.items()
        ]


def ladder_view(s) -> LogPowerSum:
    """s as a ladder sum: a LogPowerSum as it is, an ExpPolySum as the
    depth-0 sum of its nonzero stored rows, alpha = (nu, j), term by term
    with j ascending (canonical order).  The rows are wrapped, not
    canonicalized again, so the view keeps every stored row.
    """
    if isinstance(s, LogPowerSum):
        return s
    if not isinstance(s, ExpPolySum):
        raise TypeError(f"unsupported operand type {type(s).__name__}")
    k, j = np.nonzero((s.rows != 0).any(axis=2))
    alphas = np.stack([s.nus[k], j.astype(complex)], axis=1)
    return LogPowerSum(s.dim, 0, alphas, s.rows[k, j])


def weight_op(j: int, p: LogPowerSum) -> LogPowerSum:
    """Multiply each term by its exponent a(j); kills terms with a(j) = 0."""
    if not -1 <= j <= p.depth:
        raise ValueError(f"component index {j} outside depth {p.depth}")
    return LogPowerSum.from_pieces(p.dim, p.depth, [(p.alphas, p.alphas[:, j + 1, None] * p.xis)])


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
    return LogPowerSum.from_pieces(p.dim, p.depth, [(alphas[live], xis[live])])


class ShiftedInverseCache:
    """Checked shifted matrices A + a*I, memoized per snapped shift a.

    A single cache is shared across one expansion run.  It caches one
    singularity check per distinct shift, not a factorization: ``solve``
    stacks the cached matrix of every row and makes one stacked
    ``np.linalg.solve`` call, which for the small systems here costs less
    than reusing LU factors would, and gives each row the bits of its own
    ``np.linalg.solve``.
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

    def solve(self, shifts: np.ndarray, xis: np.ndarray) -> np.ndarray:
        """Solve (A + a I) x = xi for each row: shifts a (K,), xis (K, n).

        The rows are checked in order: a numerically singular shifted
        matrix raises ValueError.  Whether a shift may have a real part is
        ``LogPowerSum.in_class``'s decision, not this one's.
        """
        xis = np.asarray(xis, dtype=complex).reshape(-1, self._n)
        shifts = np.asarray(shifts, dtype=complex).reshape(-1).tolist()
        mats = [self._shifted(snap_scalar(a)) for a in shifts]
        if len(mats) != xis.shape[0]:
            raise ValueError(f"{len(mats)} shifts for {xis.shape[0]} coefficient rows")
        stack = np.array(mats).reshape(-1, self._n, self._n)
        return np.linalg.solve(stack, xis[:, :, None])[:, :, 0]


def shifted_inverse(p: LogPowerSum, cache: ShiftedInverseCache) -> LogPowerSum:
    """Apply (A + a(-1) I)^-1 termwise, A being cache.A; inverts A + weight_op(-1)."""
    if cache.A.shape[0] != p.dim:
        raise ValueError("matrix/operand dimension mismatch")
    return LogPowerSum.from_pieces(p.dim, p.depth, [(p.alphas, cache.solve(p.alphas[:, 0], p.xis))])


def time_derivative(p: LogPowerSum) -> LogPowerSum:
    """Symbolic d/dt of t -> p(ladder(t)): weight_op(-1, p) + descent_op(p)."""
    return weight_op(-1, p) + descent_op(p)


def mul_apply_logpower(
    G: MultiLinearMap,
    terms: Sequence[LogPowerSum],
    multisets: Sequence[Sequence[int]],
    weights: Sequence[float],
) -> tuple[np.ndarray, np.ndarray]:
    """Raw terms of sum_g weights[g] * G(terms[i] for i in multisets[g]).

    Each entry of ``multisets`` picks G.arity of ``terms`` by index; every
    combination of one term row per pick is one raw term, whose exponent
    vector is the sum of the picked ones, added from left to right.  The
    rows come out multiset after multiset, each in ``itertools.product``
    order over its picks, at the largest depth of the picked sums; shallower
    exponent vectors are zero-padded, as ``from_pieces`` pads.  A weight other
    than 1 multiplies its multiset's raw coefficients.  The result is the
    pair (alphas, xis) of raw arrays, for one canonicalization of the sum it
    belongs to (``LogPowerSum.from_pieces``).

    The engine makes one call per (order, map).  Only flat index arrays
    into a table of the picked sums' rows span all the rows; the rows are
    gathered and pushed through ``G.batch`` in blocks of ``_ROWS``, so the
    argument stacks stay small whatever the order.  ``G.batch`` gives every
    row the bits of ``G(...)`` on it, so each raw term is bit for bit the
    one the term-by-term loop makes.
    """
    m = G.arity
    multisets = [tuple(parts) for parts in multisets]
    if len(weights) != len(multisets):
        raise ValueError(f"{len(weights)} weights for {len(multisets)} multisets")
    for parts in multisets:
        if len(parts) != m:
            raise ValueError(f"map arity {m} != argument count {len(parts)}")
    used = sorted({i for parts in multisets for i in parts})
    for i in used:
        if terms[i].dim != G.dim:
            raise ValueError("dimension mismatch between map and arguments")
    if not used:
        return np.zeros((0, 2), dtype=complex), np.zeros((0, G.dim), dtype=complex)
    depth = max(terms[i].depth for i in used)
    # One table of the picked sums' rows; terms[i] starts at row start[i].
    picks = [(terms[i].alphas, terms[i].xis) for i in used]
    alpha_tab, xi_tab = _stack_rows(picks, G.dim, depth)
    start = dict(zip(used, np.cumsum([0] + [a.shape[0] for a, _ in picks]).tolist()))
    index = np.concatenate(
        [
            np.indices([terms[i].term_count() for i in parts]).reshape(m, -1)
            + np.array([start[i] for i in parts])[:, None]
            for parts in multisets
        ],
        axis=1,
    )
    counts = [math.prod(terms[i].term_count() for i in parts) for parts in multisets]
    row_weight = np.repeat(np.array(weights, dtype=float), counts)
    alphas = np.empty((index.shape[1], depth + 2), dtype=complex)
    xis = np.empty((index.shape[1], G.dim), dtype=complex)
    for lo in range(0, index.shape[1], _ROWS):
        block = index[:, lo : lo + _ROWS]
        picked = alpha_tab[block]
        out = alphas[lo : lo + _ROWS]
        np.copyto(out, picked[0])
        for a in picked[1:]:
            out += a
        xi = G.batch(*xi_tab[block])
        # rows of weight 1 stay as G gave them, as when each multiset had its
        # own call: a product with 1 + 0j can flip the sign of a zero
        w = row_weight[lo : lo + _ROWS]
        scaled = w != 1.0
        if scaled.any():
            xi[scaled] *= w[scaled, None]
        xis[lo : lo + _ROWS] = xi
    return alphas, xis


def trim_small_logpower(p: LogPowerSum, floor: float) -> LogPowerSum:
    """Copy of p without terms whose coefficient norm is below floor.

    Canonicalization trims against the sum's own largest term, which says
    nothing when the whole sum is rounding dust; residual checks supply a
    floor from the scale of the data that produced the residual.
    """
    keep = row_norms(p.xis) >= floor
    return LogPowerSum.from_pieces(p.dim, p.depth, [(p.alphas[keep], p.xis[keep])])

