"""Sparse symmetric-free multilinear maps on C^n.

A degree-m term of the nonlinearity is an m-linear map given by a sparse
entry table: ``value * x1[j1] * ... * xm[jm]`` accumulated into output row
``i``.  No symmetry is assumed.  The ODE right-hand side applies a map as
written.  In power and log mode the expansion engine sums interactions over
multisets of earlier terms: it applies ``symmetrized``, the sum of the
map over every slot permutation, once per multiset and weights it by the
multiset's share of orderings, so asymmetric maps need no special case.
Exponential mode still sums ``G`` over every distinct ordering.

Two evaluators share the entry table.  ``__call__`` applies the map to
single vectors; the ODE right-hand side calls it on every evaluation,
where per-call numpy overhead would cost more than the loop.  ``batch``
broadcasts over leading axes, so one call covers every term combination
of a symbolic product: pass ``(K0, 1, dim)`` and ``(1, K1, dim)`` for the
outer product, or equal shapes for row-wise products.  ``batch`` is
bit-identical to ``__call__`` row by row: it multiplies in explicit
float64 real/imaginary parts, in the order of Python's complex product,
and accumulates entries in entry order.  numpy's vectorised complex
multiply rounds differently in the last bit, and the exponential-mode
resonant recursion amplifies such bits far past the output tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["MultiLinearMap"]


@dataclass(frozen=True)
class MultiLinearMap:
    """m-linear map C^dim x ... x C^dim -> C^dim with sparse entries.

    entries: tuple of (out_index, in_indices, value) with len(in_indices)
    equal to arity.  Duplicate (out, in) slots are allowed in the input and
    merged on construction.
    """

    arity: int
    dim: int
    entries: tuple[tuple[int, tuple[int, ...], complex], ...] = field(default=())

    def __post_init__(self):
        if self.arity < 1:
            raise ValueError("arity must be >= 1")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        merged: dict[tuple[int, tuple[int, ...]], complex] = {}
        for out, ins, val in self.entries:
            ins = tuple(int(j) for j in ins)
            out = int(out)
            if not 0 <= out < self.dim:
                raise ValueError(f"entry output index {out} out of range")
            if len(ins) != self.arity:
                raise ValueError("entry input tuple length != arity")
            if any(not 0 <= j < self.dim for j in ins):
                raise ValueError(f"entry input indices {ins} out of range")
            key = (out, ins)
            merged[key] = merged.get(key, 0j) + complex(val)
        canon = tuple(
            (out, ins, merged[(out, ins)]) for out, ins in sorted(merged)
            if merged[(out, ins)] != 0
        )
        object.__setattr__(self, "entries", canon)

    def __call__(self, *args: np.ndarray) -> np.ndarray:
        """Apply to ``arity`` vectors of length dim."""
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        out = np.zeros(self.dim, dtype=complex)
        for i, ins, val in self.entries:
            prod = val
            for slot, j in enumerate(ins):
                prod = prod * args[slot][j]
            out[i] += prod
        return out

    def batch(self, *args: np.ndarray) -> np.ndarray:
        """Apply to ``arity`` stacks of vectors, broadcasting leading axes.

        Each argument has shape ``(..., dim)``; the result has the broadcast
        leading shape followed by ``dim``, and every row equals ``__call__``
        on the matching argument rows bit for bit.
        """
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        args = [np.asarray(a, dtype=complex) for a in args]
        for a in args:
            if a.ndim < 1 or a.shape[-1] != self.dim:
                raise ValueError(f"argument trailing axis must have length {self.dim}")
        lead = np.broadcast_shapes(*(a.shape[:-1] for a in args))
        parts = [(a.real, a.imag) for a in args]
        out = np.zeros(lead + (self.dim,), dtype=complex)
        out_re, out_im = out.real, out.imag
        for i, ins, val in self.entries:
            # (pr + i*pi) * (xr + i*xi), written out as Python's complex
            # product computes it.
            pr, pi = val.real, val.imag
            for (re, im), j in zip(parts, ins):
                xr, xi = re[..., j], im[..., j]
                pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
            out_re[..., i] += pr
            out_im[..., i] += pi
        return out

    @cached_property
    def symmetrized(self) -> "MultiLinearMap":
        """G_s = sum over every slot permutation sigma of G composed with sigma.

        G_s is symmetric, and for a multiset of arguments the sum of G over
        its distinct orderings equals (orderings / arity!) * G_s.  Built once
        per map: every entry under every permutation, with the permuted
        slots that coincide merged by the constructor.
        """
        perms = list(itertools.permutations(range(self.arity)))
        entries = tuple(
            (out, tuple(ins[s] for s in perm), val)
            for out, ins, val in self.entries
            for perm in perms
        )
        return MultiLinearMap(self.arity, self.dim, entries)

    def is_real(self, tol: float = 0.0) -> bool:
        """True when every entry value has |imag| <= tol."""
        return all(abs(v.imag) <= tol for _, _, v in self.entries)

    @classmethod
    def scalar_power(cls, arity: int) -> "MultiLinearMap":
        """The 1-d map (x1, ..., xm) -> x1*...*xm, i.e. G(y) = y**m."""
        return cls(arity=arity, dim=1, entries=((0, (0,) * arity, 1.0),))
