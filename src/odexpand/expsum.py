"""Finite sums of polynomial-times-exponential terms on C^n.

An ``ExpPolySum`` stores g(t) = sum_nu p_nu(t) * exp(nu*t) with complex
exponents nu and vector polynomial coefficients p_nu.  The sum is two
arrays in canonical term order: the exponents ``nus`` (K,) and the
coefficient rows ``rows`` (K, D, dim), row j of a term being the
coefficient of t^j, zero-padded to the longest term.  ``from_pieces`` is
the one canonicalizer: it pads and stacks raw pieces, snaps the exponents
to a fixed grid and merges them, zeroes negligible rows and drops all-zero
terms, so two sums agree as functions iff their arrays agree.  Sums and
products (``mul_apply_exp``) are built here; other algebra (d/dt, a matrix
on each coefficient, the defect check) runs on the depth-0 ladder view,
``logpower.ladder_view``.
"""

from __future__ import annotations

import cmath
import math
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
]

# Exponent keys live on this grid; equality of snapped keys is exact.
EXPONENT_GRID = 1e-12
# Coefficients below TRIM_REL times the largest of their group are dropped:
# a polynomial row against its term here, a term against its sum in the
# ladder-power sums.
TRIM_REL = 1e-13


def running_sum(name: str, zero: str, products: list[str]) -> list[str]:
    """Generated statements that sum the products into name from zero, left
    to right: ``name = zero + q1``, then ``name += q`` for each later one.
    Separate statements keep the source flat however many products there
    are; CPython's compiler recurses into one long sum expression."""
    head = "".join(f" + {q}" for q in products[:1])
    return [f"{name} = {zero}{head}"] + [f"{name} += {q}" for q in products[1:]]


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
    end zero; every instance comes out of from_pieces.
    """

    dim: int
    nus: np.ndarray
    rows: np.ndarray

    @classmethod
    def build(cls, dim: int, raw: Iterable[tuple[complex, np.ndarray]]) -> "ExpPolySum":
        """Canonicalize an iterable of (exponent, coeff-rows) pairs; see from_pieces."""
        pieces = []
        for nu, coeffs in raw:
            arr = np.atleast_2d(np.asarray(coeffs, dtype=complex))
            if arr.shape[1] != dim:
                raise ValueError(f"coefficient width {arr.shape[1]} != dim {dim}")
            pieces.append((np.array([complex(nu)]), arr[None]))
        return cls.from_pieces(dim, pieces)

    @classmethod
    def from_pieces(
        cls, dim: int, pieces: Iterable[tuple[np.ndarray, np.ndarray]]
    ) -> "ExpPolySum":
        """Canonical sum of raw pieces, each a (nus, rows) pair of complex
        arrays: nus (R,) and rows (R, D, dim).

        The pieces are stacked in the order given, their rows zero-padded to
        the longest piece (at least one row); a lone piece of that length is
        used as it is.  Exponents are snapped onto the grid.  A term whose
        snapped exponent occurs once keeps its rows; rows of a repeated
        exponent are summed onto zeros in stacked order.  Terms are sorted
        by (Re, Im).  Within each term, rows that are zero or whose norm is
        below TRIM_REL times the term's largest are zeroed, and a term with
        no row left is dropped; the rows are then cut to the longest term.
        A coefficient that is not finite, or whose norm overflows, raises
        ValueError.
        """
        pieces = list(pieces)
        width = max([1] + [r.shape[1] for _, r in pieces])
        if len(pieces) == 1 and pieces[0][1].shape[1] == width:
            nus, rows = pieces[0]
        else:
            nus = np.concatenate([np.zeros(0, complex)] + [n for n, _ in pieces])
            rows = np.zeros((nus.shape[0], width, dim), dtype=complex)
            lo = 0
            for _, r in pieces:
                rows[lo : lo + r.shape[0], : r.shape[1]] = r
                lo += r.shape[0]
        nus = np.asarray(nus, dtype=complex).reshape(-1, 1)
        rows = np.asarray(rows, dtype=complex)
        if nus.shape[0] == 0:
            return cls.zero(dim)
        uniq, first, group = group_keys(nus)
        acc = np.zeros((uniq.shape[0],) + rows.shape[1:], dtype=complex)
        # One scatter over flat entries: each entry still sums its rows in
        # raw order, and np.add.at is several times faster on 1-D operands.
        size = rows.shape[1] * rows.shape[2]
        slot = (group[:, None] * size + np.arange(size)).reshape(-1)
        np.add.at(acc.reshape(-1), slot, rows.reshape(-1))
        # Adding onto zeros turns -0.0 into 0.0; a lone term keeps its rows as given.
        lone = np.bincount(group) == 1
        acc[lone] = rows[first[lone]]
        with np.errstate(over="ignore"):
            norms = np.sqrt((abs(acc) ** 2).sum(axis=2))
        top = norms.max(axis=1)
        if not math.isfinite(top.max()):
            raise ValueError(f"non-finite coefficient in an ExpPolySum (largest norm {top.max()})")
        keep = (norms > 0.0) & (norms >= TRIM_REL * top[:, None])
        acc[~keep] = 0.0
        live = keep.any(axis=1)
        used = np.flatnonzero(keep.any(axis=0))
        width = used[-1] + 1 if used.size else 1
        return cls(dim, uniq[live, 0], acc[live, :width])

    @classmethod
    def zero(cls, dim: int) -> "ExpPolySum":
        return cls(dim, np.zeros(0, dtype=complex), np.zeros((0, 1, dim), dtype=complex))

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

    # -- algebra ---------------------------------------------------------

    def __add__(self, other: "ExpPolySum") -> "ExpPolySum":
        if other.dim != self.dim:
            raise ValueError("dimension mismatch")
        return ExpPolySum.from_pieces(self.dim, [(self.nus, self.rows), (other.nus, other.rows)])

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

    def emit(self, p: str, namespace: dict) -> list[str]:
        """Python statements that set {p}0 ... {p}{dim-1} to the value at t.

        They read the time from the name ``t``, a Python float; every name
        they set starts with ``p``, and every value they read is bound in
        ``namespace`` under such a name.  {p}e{k} = cmath.exp(nu_k * t) for
        every term k.  For component i, Horner's rule runs over the term's
        rows from the last, h = r_last and then h = h * t + r_j, and the
        output is the running sum from 0j of h * e_k in canonical term
        order, leaving out the terms whose rows are all zero in component i
        (``running_sum``).

        That is eval's arithmetic up to the signs of zeros.  eval starts
        Horner from 0j over zero-padded rows, adds every term and promotes
        the times to complex, where Python multiplies a complex by a float
        directly on 3.14 and later.  Each of these changes at most the sign
        of a zero in an intermediate value, and so does every product or sum
        of finite such values; the running sum from 0j absorbs them, since
        it never holds -0.0.  So the statements give eval's bits wherever
        numpy rounds each complex product once, as it does on real
        coefficient rows; on complex rows its vectorised product may fuse
        multiply-adds and differ in the last bits.  An exponent that
        overflows gives the outputs ``eval(t)`` instead, so an overflow
        gives np.exp's inf and never raises.

        One statement per Horner step keeps the source flat for any number
        of terms; exponents and rows are bound by name, never written into
        the source.
        """
        namespace["cexp"] = cmath.exp
        namespace[f"{p}eval"] = lambda x: self.eval(x).tolist()
        exps = []
        for k, nu in enumerate(self.nus.tolist()):
            namespace[f"{p}nu{k}"] = nu
            exps.append(f"{p}e{k} = cexp({p}nu{k} * t)")
        sums = []
        terms = [rows.tolist() for _, rows in self.items()]
        for i in range(self.dim):
            products = []
            for k, rows in enumerate(terms):
                if not any(row[i] for row in rows):
                    continue
                names = []
                for j, row in enumerate(rows):
                    names.append(f"{p}r{k}_{j}_{i}")
                    namespace[names[-1]] = row[i]
                h = names.pop()
                for r in reversed(names):
                    sums.append(f"{p}h{k} = {h} * t + {r}")
                    h = f"{p}h{k}"
                products.append(f"{h} * {p}e{k}")
            sums += running_sum(f"{p}{i}", "0j", products)
        outs = "".join(f"{p}{i}, " for i in range(self.dim))
        lines = ["try:"] + [f"    {x}" for x in exps or ["pass"]]
        lines += ["except (OverflowError, ValueError):", f"    {outs}= {p}eval(t)", "else:"]
        return lines + [f"    {x}" for x in sums]

    # -- serialization ---------------------------------------------------

    def to_records(self) -> list[dict]:
        nus = np.stack([self.nus.real, self.nus.imag], axis=-1).tolist()
        rows = np.stack([self.rows.real, self.rows.imag], axis=-1).tolist()
        ends = self._lengths.tolist()  # each term's rows end there
        return [{"exponent": e, "coeffs": r[:n]} for e, r, n in zip(nus, rows, ends)]


def mul_apply_exp(G: MultiLinearMap, args: Sequence[ExpPolySum]) -> ExpPolySum:
    """Push m ExpPolySums through an m-linear map.

    Exponents add across the chosen terms; polynomial parts combine by
    m-dimensional coefficient convolution through G.

    Each argument is flattened to its live (term, row) pairs, the rows up
    to each term's end, with argument s laid along axis s.  One ``G.batch``
    call evaluates every choice of live rows at once, and ``np.add.at``
    scatters each product into its (term combination, degree) slot, in the
    C order of the row choices.  The sum so reduces in two stages, as the
    term-by-term loop does: per term combination by degree, adding row
    tuples in lexicographic order, then per snapped exponent in combination
    order, so the result is bit-identical to that loop through ``build``.
    """
    if len(args) != G.arity:
        raise ValueError(f"map arity {G.arity} != argument count {len(args)}")
    for a in args:
        if a.dim != G.dim:
            raise ValueError("dimension mismatch between map and arguments")
    m = len(args)
    nu, vecs, terms, degrees = None, [], [], 0
    for s, a in enumerate(args):
        live = np.arange(a.rows.shape[1]) < a._lengths[:, None]
        k, j = np.nonzero(live)
        lead = [1] * m
        lead[s] = k.size
        vecs.append(a.rows[live].reshape(lead + [G.dim]))
        terms.append(k.reshape(lead))
        degrees = degrees + j.reshape(lead)
        lead[s] = a.term_count()
        nu = a.nus.reshape(lead) if nu is None else nu + a.nus.reshape(lead)
    width = sum(a.rows.shape[1] for a in args) - m + 1
    slot = np.ravel_multi_index(terms + [degrees], nu.shape + (width,)).reshape(-1)
    g = G.batch(*vecs).reshape(-1, G.dim)
    out = np.zeros((nu.size, width, G.dim), dtype=complex)
    flat = out.reshape(-1, G.dim)
    # one scatter per component: np.add.at is several times faster on 1-D
    # operands than on rows of dim values
    for i in range(G.dim):
        np.add.at(flat[:, i], slot, g[:, i])
    return ExpPolySum.from_pieces(G.dim, [(nu.reshape(-1), out)])
