"""Finite sums of polynomial-times-exponential terms on C^n.

An ``ExpPolySum`` stores g(t) = sum_nu p_nu(t) * exp(nu*t) with complex
exponents nu and vector polynomial coefficients p_nu.  The representation is
kept canonical: exponents are snapped to a fixed grid and merged, negligible
polynomial rows are dropped, and no term has an all-zero polynomial.  Under
that discipline two sums agree as functions iff their term maps agree, which
is what the engine's symbolic identity checks rely on.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from .multilinear import MultiLinearMap

__all__ = [
    "ExpPolySum",
    "snap_scalar",
    "snap_float",
    "snap_array",
    "mul_apply_exp",
    "trim_small_exp",
]

# Exponent keys live on this grid; equality of snapped keys is exact.
EXPONENT_GRID = 1e-12
# Polynomial rows below TRIM_REL * (largest row norm in the term) are dropped.
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


def _sort_key(nu: complex) -> tuple[float, float]:
    return (nu.real, nu.imag)


def _stack_rows(polys: Sequence[np.ndarray], dim: int) -> np.ndarray:
    """Coefficient row blocks stacked into (K, D, dim), zero-padded to D >= 1 rows."""
    out = np.zeros((len(polys), max([1] + [p.shape[0] for p in polys]), dim), dtype=complex)
    for i, p in enumerate(polys):
        out[i, : p.shape[0]] = p
    return out


@dataclass(frozen=True)
class ExpPolySum:
    """Canonical sum of p_nu(t)*exp(nu*t) terms; treat instances as immutable."""

    dim: int
    terms: dict[complex, np.ndarray] = field(default_factory=dict)

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
        return cls.from_arrays(dim, np.array(nus, dtype=complex), _stack_rows(polys, dim))

    @classmethod
    def from_arrays(cls, dim: int, nus: np.ndarray, rows: np.ndarray) -> "ExpPolySum":
        """Canonicalize raw terms: nus (R,) and zero-padded rows (R, D, dim), complex.

        Exponents are snapped onto the grid.  A term whose snapped exponent
        occurs once keeps its rows; rows of a repeated exponent are summed
        onto zeros in raw order.  Terms are sorted by (Re, Im).  Within each
        term, rows whose norm is below TRIM_REL times the term's largest are
        zeroed, trailing zero rows are cut, and an all-zero term is dropped.
        """
        nus = np.ascontiguousarray(nus, dtype=complex).reshape(-1)
        rows = np.asarray(rows, dtype=complex)
        count = nus.shape[0]
        if count == 0:
            return cls(dim=dim, terms={})
        keys = snap_array(nus.view(float).reshape(count, 2))
        order = np.lexsort((keys[:, 1], keys[:, 0]))
        sorted_keys = keys[order]
        starts = np.ones(count, dtype=bool)
        starts[1:] = (sorted_keys[1:] != sorted_keys[:-1]).any(axis=1)
        group = np.empty(count, dtype=np.intp)
        group[order] = np.cumsum(starts) - 1
        acc = np.zeros((int(starts.sum()),) + rows.shape[1:], dtype=complex)
        np.add.at(acc, group, rows)
        # Adding onto zeros turns -0.0 into 0.0; a lone term keeps its rows as given.
        lone = np.bincount(group) == 1
        acc[lone] = rows[order[starts][lone]]
        norms = np.sqrt((abs(acc) ** 2).sum(axis=2))
        top = norms.max(axis=1)
        keep = norms >= TRIM_REL * top[:, None]
        acc[~keep] = 0.0
        lengths = keep.shape[1] - np.argmax(keep[:, ::-1], axis=1)
        uniq = sorted_keys[starts].view(complex).reshape(-1)
        out: dict[complex, np.ndarray] = {}
        for nu, coeffs, n_rows, live in zip(uniq.tolist(), acc, lengths, top != 0.0):
            if live:
                out[nu] = coeffs[:n_rows]
        return cls(dim=dim, terms=out)

    @classmethod
    def zero(cls, dim: int) -> "ExpPolySum":
        return cls(dim=dim, terms={})

    # -- queries ---------------------------------------------------------

    @cached_property
    def packed(self) -> tuple[np.ndarray, np.ndarray]:
        """Exponents (K,) and zero-padded rows (K, degree+1, dim) in items() order."""
        items = self.items()
        nus = np.array([nu for nu, _ in items], dtype=complex)
        return nus, _stack_rows([c for _, c in items], self.dim)

    def items(self) -> list[tuple[complex, np.ndarray]]:
        """Terms in deterministic (Re, Im) order."""
        return [(nu, self.terms[nu]) for nu in sorted(self.terms, key=_sort_key)]

    def is_zero(self) -> bool:
        return not self.terms

    def term_count(self) -> int:
        return len(self.terms)

    def sup_norm(self) -> float:
        """Largest coefficient row norm over all terms."""
        best = 0.0
        for c in self.terms.values():
            best = max(best, float(np.sqrt((abs(c) ** 2).sum(axis=1)).max()))
        return best

    def exponents(self) -> list[complex]:
        return [nu for nu, _ in self.items()]

    def in_class(self, mu: float, tol: float = 1e-9) -> bool:
        """All exponents have real part mu (the fixed-decay-rate class)."""
        scale = max(1.0, abs(mu))
        return all(abs(nu.real - mu) <= tol * scale for nu in self.terms)

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ExpPolySum") -> "ExpPolySum":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return ExpPolySum.build(self.dim, list(self.terms.items()) + list(other.terms.items()))

    def __sub__(self, other: "ExpPolySum") -> "ExpPolySum":
        return self + other.scale(-1.0)

    def scale(self, a: complex) -> "ExpPolySum":
        return ExpPolySum.build(self.dim, [(nu, a * c) for nu, c in self.terms.items()])

    def apply_matrix(self, A: np.ndarray) -> "ExpPolySum":
        """Left-multiply every coefficient row by A (rows are vectors)."""
        A = np.asarray(A, dtype=complex)
        return ExpPolySum.build(self.dim, [(nu, c @ A.T) for nu, c in self.terms.items()])

    def conjugate(self) -> "ExpPolySum":
        return ExpPolySum.build(
            self.dim, [(nu.conjugate(), c.conjugate()) for nu, c in self.terms.items()]
        )

    def derivative(self) -> "ExpPolySum":
        """d/dt: each term p*exp(nu t) maps to (p' + nu*p)*exp(nu t)."""
        raw = []
        for nu, c in self.terms.items():
            d = c.shape[0]
            out = nu * c.astype(complex, copy=True)
            for j in range(d - 1):
                out[j] += (j + 1) * c[j + 1]
            raw.append((nu, out))
        return ExpPolySum.build(self.dim, raw)

    def eval(self, t: float) -> np.ndarray:
        """Pointwise value in C^dim.

        Horner's rule runs on all terms at once over the zero-padded rows
        (padding keeps a term's partial value at exactly zero), and the terms
        are summed in items() order, one after another.
        """
        nus, rows = self.packed
        p = np.zeros((nus.shape[0], self.dim), dtype=complex)
        for j in range(rows.shape[1] - 1, -1, -1):
            p = p * t + rows[:, j]
        out = np.zeros(self.dim, dtype=complex)
        for term in p * np.exp(nus * t)[:, None]:
            out += term
        return out

    # -- serialization ---------------------------------------------------

    def to_records(self) -> list[dict]:
        recs = []
        for nu, c in self.items():
            recs.append(
                {
                    "exponent": [nu.real, nu.imag],
                    "coeffs": [[[z.real, z.imag] for z in row] for row in c],
                }
            )
        return recs


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
        nus, rows = a.packed
        shape = [1] * (2 * m)
        shape[2 * s : 2 * s + 2] = rows.shape[:2]
        vecs.append(rows.reshape(shape + [G.dim]))
        sizes.append(rows.shape[1])
        lead = [1] * m
        lead[s] = nus.shape[0]
        nu = nus.reshape(lead) if nu is None else nu + nus.reshape(lead)
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
    bound = rel * scale
    raw = []
    for nu, rows in s.items():
        kept = rows.copy()
        norms = np.sqrt((abs(kept) ** 2).sum(axis=1))
        kept[norms < bound] = 0.0
        if np.any(kept):
            raw.append((nu, kept))
    return ExpPolySum.build(s.dim, raw)

