"""Finite sums of polynomial-times-exponential terms on C^n.

An ``ExpPolySum`` stores g(t) = sum_nu p_nu(t) * exp(nu*t) with complex
exponents nu and vector polynomial coefficients p_nu.  The sum is two
arrays in canonical term order: the exponents ``nus`` (K,) and the
coefficient rows ``rows`` (K, D, dim), row j of a term being the
coefficient of t^j, zero-padded to the longest term.  Every operator below
maps them to new raw arrays and canonicalizes once through ``from_arrays``:
exponents are snapped to a fixed grid and merged, negligible polynomial
rows are zeroed, and no term has an all-zero polynomial.  Under that
discipline two sums agree as functions iff their arrays agree, which is
what the engine's symbolic identity checks rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from types import MappingProxyType
from typing import Iterable, Mapping, Sequence

import numpy as np

from .multilinear import MultiLinearMap

__all__ = [
    "ExpPolySum",
    "snap_scalar",
    "snap_float",
    "snap_array",
    "group_keys",
    "mul_apply_exp",
    "trim_small_exp",
]

# Exponent keys live on this grid; equality of snapped keys is exact.
EXPONENT_GRID = 1e-12
# Coefficients below TRIM_REL times the largest of their group are dropped:
# a polynomial row against its term here, a term against its sum in the
# ladder-power sums.
TRIM_REL = 1e-13


def snap_float(x: float) -> float:
    """Snap a real number onto the exponent grid (normalizing -0.0)."""
    v = round(float(x) / EXPONENT_GRID) * EXPONENT_GRID
    return 0.0 if v == 0.0 else v


def snap_scalar(z: complex) -> complex:
    """Snap a complex number onto the exponent grid (normalizing -0.0)."""
    return complex(snap_float(z.real), snap_float(z.imag))


def snap_array(x: np.ndarray) -> np.ndarray:
    """snap_float elementwise: np.round rounds half to even, as round does."""
    return np.round(np.asarray(x, dtype=float) / EXPONENT_GRID) * EXPONENT_GRID + 0.0


def group_keys(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Snap R >= 1 complex key rows (R, C) and group the equal ones.

    Returns the distinct snapped keys (G, C) in canonical order, which is
    lexicographic over (Re k0, Im k0, Re k1, ...); the raw index of each
    group's first row; and the group index of every raw row.
    """
    snapped = snap_array(np.ascontiguousarray(keys, dtype=complex).view(float))
    order = np.lexsort(snapped.T[::-1])
    sorted_keys = snapped[order]
    starts = np.ones(order.shape[0], dtype=bool)
    starts[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
    group = np.empty(order.shape[0], dtype=np.intp)
    group[order] = np.cumsum(starts) - 1
    # lexsort is stable, so each group's first sorted row is its first raw row.
    return sorted_keys[starts].view(complex), order[starts], group


@dataclass(frozen=True)
class ExpPolySum:
    """Canonical sum of p_nu(t)*exp(nu*t) terms; treat instances as immutable.

    ``nus`` (K,) holds the exponents and ``rows`` (K, D, dim) the
    coefficient rows, both complex and in canonical (Re, Im) order, with D
    the length of the longest term (at least 1) and every row past a term's
    end zero; every instance comes out of from_arrays.
    """

    dim: int
    nus: np.ndarray
    rows: np.ndarray

    @classmethod
    def build(cls, dim: int, raw: Iterable[tuple[complex, np.ndarray]]) -> "ExpPolySum":
        """Canonicalize an iterable of (exponent, coeff-rows) pairs; see from_arrays."""
        nus, polys = [], []
        for nu, coeffs in raw:
            arr = np.atleast_2d(np.asarray(coeffs, dtype=complex))
            if arr.shape[1] != dim:
                raise ValueError(f"coefficient width {arr.shape[1]} != dim {dim}")
            nus.append(complex(nu))
            polys.append(arr)
        rows = np.zeros((len(polys), max([1] + [p.shape[0] for p in polys]), dim), dtype=complex)
        for i, p in enumerate(polys):
            rows[i, : p.shape[0]] = p
        return cls.from_arrays(dim, np.array(nus, dtype=complex), rows)

    @classmethod
    def from_arrays(cls, dim: int, nus: np.ndarray, rows: np.ndarray) -> "ExpPolySum":
        """Canonicalize raw terms: nus (R,) and zero-padded rows (R, D, dim), complex.

        Exponents are snapped onto the grid.  A term whose snapped exponent
        occurs once keeps its rows; rows of a repeated exponent are summed
        onto zeros in raw order.  Terms are sorted by (Re, Im).  Within each
        term, rows that are zero or whose norm is below TRIM_REL times the
        term's largest are zeroed, and a term with no row left is dropped;
        the rows are then cut to the longest term.
        """
        nus = np.asarray(nus, dtype=complex).reshape(-1, 1)
        rows = np.asarray(rows, dtype=complex)
        if nus.shape[0] == 0:
            return cls.zero(dim)
        uniq, first, group = group_keys(nus)
        acc = np.zeros((uniq.shape[0],) + rows.shape[1:], dtype=complex)
        np.add.at(acc, group, rows)
        # Adding onto zeros turns -0.0 into 0.0; a lone term keeps its rows as given.
        lone = np.bincount(group) == 1
        acc[lone] = rows[first[lone]]
        norms = np.sqrt((abs(acc) ** 2).sum(axis=2))
        keep = (norms > 0.0) & (norms >= TRIM_REL * norms.max(axis=1)[:, None])
        acc[~keep] = 0.0
        live = keep.any(axis=1)
        used = np.flatnonzero(keep.any(axis=0))
        width = used[-1] + 1 if used.size else 1
        return cls(dim, uniq[live, 0], acc[live, :width])

    @classmethod
    def zero(cls, dim: int) -> "ExpPolySum":
        return cls(dim, np.zeros(0, dtype=complex), np.zeros((0, 1, dim), dtype=complex))

    def _canon(self, nus: np.ndarray, rows: np.ndarray) -> "ExpPolySum":
        """Canonical sum of raw terms at this sum's dim."""
        return ExpPolySum.from_arrays(self.dim, nus, rows)

    # -- queries ---------------------------------------------------------

    @cached_property
    def _lengths(self) -> np.ndarray:
        """Each term's row count up to its last nonzero row (every kept row is nonzero)."""
        live = (self.rows != 0).any(axis=2)
        return live.shape[1] - np.argmax(live[:, ::-1], axis=1)

    def items(self) -> list[tuple[complex, np.ndarray]]:
        """(exponent, coefficient rows) pairs in canonical order, cut at each term's end."""
        return [
            (nu, rows[:n])
            for nu, rows, n in zip(self.nus.tolist(), self.rows, self._lengths.tolist())
        ]

    @cached_property
    def terms(self) -> Mapping[complex, np.ndarray]:
        """Read-only {exponent: coefficient rows} view, for key lookups."""
        return MappingProxyType(dict(self.items()))

    def is_zero(self) -> bool:
        return self.nus.shape[0] == 0

    def term_count(self) -> int:
        return self.nus.shape[0]

    def sup_norm(self) -> float:
        """Largest coefficient row norm over all terms."""
        return float(np.sqrt((abs(self.rows) ** 2).sum(axis=2)).max(initial=0.0))

    def exponents(self) -> list[complex]:
        return self.nus.tolist()

    def in_class(self, mu: float, tol: float = 1e-9) -> bool:
        """All exponents have real part mu (the fixed-decay-rate class)."""
        return bool((abs(self.nus.real - mu) <= tol * max(1.0, abs(mu))).all())

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ExpPolySum") -> "ExpPolySum":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        k, width = self.term_count(), max(self.rows.shape[1], other.rows.shape[1])
        rows = np.zeros((k + other.term_count(), width, self.dim), dtype=complex)
        rows[:k, : self.rows.shape[1]] = self.rows
        rows[k:, : other.rows.shape[1]] = other.rows
        return self._canon(np.concatenate([self.nus, other.nus]), rows)

    def __sub__(self, other: "ExpPolySum") -> "ExpPolySum":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "ExpPolySum":
        return self._canon(self.nus, a * self.rows)

    def apply_matrix(self, A: np.ndarray) -> "ExpPolySum":
        """Left-multiply every coefficient row by A (rows are vectors).

        Each term's rows go through ``rows @ A.T`` as one block, as they
        would term by term: a term of several rows is one matrix product,
        which its padding rows leave unchanged, and a one-row term is a
        vector-matrix product, which rounds differently.
        """
        AT = np.asarray(A, dtype=complex).T
        out = self.rows @ AT
        one = self._lengths == 1
        out[one, :1] = self.rows[one, :1] @ AT
        return self._canon(self.nus, out)

    def conjugate(self) -> "ExpPolySum":
        return self._canon(self.nus.conj(), self.rows.conj())

    def derivative(self) -> "ExpPolySum":
        """d/dt: each term p*exp(nu t) maps to (p' + nu*p)*exp(nu t).

        Row j gains (j+1) times row j+1 only inside its term, so a term's
        last row keeps the sign of a zero in nu*p.
        """
        out = self.nus[:, None, None] * self.rows
        steps = np.arange(1, self.rows.shape[1])
        inside = (steps < self._lengths[:, None])[:, :, None]
        np.add(out[:, :-1], steps[:, None] * self.rows[:, 1:], out=out[:, :-1], where=inside)
        return self._canon(self.nus, out)

    def eval(self, t) -> np.ndarray:
        """Value in C^dim at time t, or at each time of a 1-D array (one row per time).

        Horner's rule runs on all times and terms at once over the
        zero-padded rows (padding keeps a term's partial value at exactly
        zero), and the terms are summed in canonical order, one after
        another, so each row is bit-identical to the scalar value.
        """
        ts = np.asarray(t, dtype=float)
        tc = ts.reshape(-1, 1, 1)
        p = np.zeros((tc.shape[0], self.term_count(), self.dim), dtype=complex)
        for j in range(self.rows.shape[1] - 1, -1, -1):
            p = p * tc + self.rows[:, j]
        # not in place: numpy's in-place complex product can round differently
        p = p * np.exp(self.nus * tc[:, :, 0])[:, :, None]
        out = np.zeros((tc.shape[0], self.dim), dtype=complex)
        for k in range(self.term_count()):
            out += p[:, k]
        return out if ts.ndim else out[0]

    # -- serialization ---------------------------------------------------

    def to_records(self) -> list[dict]:
        return [
            {"exponent": [nu.real, nu.imag], "coeffs": [[[z.real, z.imag] for z in r] for r in c]}
            for nu, c in self.items()
        ]


def mul_apply_exp(G: MultiLinearMap, args: Sequence[ExpPolySum]) -> ExpPolySum:
    """Push m ExpPolySums through an m-linear map.

    Exponents add across the chosen terms; polynomial parts combine by
    m-dimensional coefficient convolution through G.

    One ``G.batch`` call evaluates every (term, row) choice at once:
    argument s lays its terms along axis 2s and its zero-padded rows along
    axis 2s+1.  The sum then reduces in two stages, as the term-by-term
    loop does: per term combination by degree, adding row tuples in
    lexicographic order, then per snapped exponent in combination order.
    Padding rows contribute exact zeros, which leave every sum unchanged,
    so the result is bit-identical to that loop through ``build``.
    """
    if len(args) != G.arity:
        raise ValueError(f"map arity {G.arity} != argument count {len(args)}")
    for a in args:
        if a.dim != G.dim:
            raise ValueError("dimension mismatch between map and arguments")
    m = len(args)
    nu, vecs, sizes = None, [], []
    for s, a in enumerate(args):
        shape = [1] * (2 * m)
        shape[2 * s : 2 * s + 2] = a.rows.shape[:2]
        vecs.append(a.rows.reshape(shape + [G.dim]))
        sizes.append(a.rows.shape[1])
        lead = [1] * m
        lead[s] = a.term_count()
        nu = a.nus.reshape(lead) if nu is None else nu + a.nus.reshape(lead)
    # (K_0, D_0, K_1, D_1, ..., dim) -> (K_0, ..., K_m-1, D_0, ..., D_m-1, dim)
    g = G.batch(*vecs).transpose(
        list(range(0, 2 * m, 2)) + list(range(1, 2 * m, 2)) + [2 * m]
    )
    combos = g.shape[:m]
    out = np.zeros(combos + (sum(sizes) - m + 1, G.dim), dtype=complex)
    for idx in itertools.product(*(range(d) for d in sizes)):
        out[..., sum(idx), :] += g[(Ellipsis,) + idx + (slice(None),)]
    return ExpPolySum.from_arrays(
        G.dim, nu.reshape(-1), out.reshape((-1,) + out.shape[m:])
    )


def trim_small_exp(s: ExpPolySum, scale: float, rel: float = TRIM_REL) -> ExpPolySum:
    """Copy of s with coefficient rows below rel*scale zeroed out.

    Canonicalization alone trims rows only against the largest row of
    their own term, so it cannot tell a term made entirely of rounding
    dust from a genuine small term.  Residual checks (symbolic defects)
    have an external scale to measure against and use this instead.
    """
    rows = s.rows.copy()
    rows[np.sqrt((abs(rows) ** 2).sum(axis=2)) < rel * scale] = 0.0
    return s._canon(s.nus, rows)
