"""Sparse symmetric-free multilinear maps on C^n.

A degree-m term of the nonlinearity is an m-linear map given by a sparse
entry table: ``value * x1[j1] * ... * xm[jm]`` accumulated into output row
``i``.  No symmetry is assumed.  The ODE right-hand side applies a map as
written.  In power and log mode the expansion engine sums interactions over
multisets of earlier terms: it applies ``symmetrized``, the sum of the
map over every slot permutation, to one ordering of each multiset and
weights it by the multiset's share of orderings, so asymmetric maps need
no special case.  The rows of all the multisets of one order are stacked
and go through ``symmetrized.batch`` in blocks of a few hundred, in one
product call per (order, map).  Exponential mode still sums ``G`` over
every distinct ordering.

Two evaluators share the entry table.  ``__call__`` applies the map to
single vectors: the ODE's generated right-hand side (``numerics.make_rhs``,
one rhs(t, y) per problem, forcing included) calls it once per map on
every evaluation, with the state list; the entries are not inlined into
that function.  It runs ``kernel``, a straight-line Python function generated once per map
from the entry table: one statement ``o{i} += v{e}*x0[j0]*x1[j1]...`` per
entry, in table order, on lists of Python complex numbers.  Python's
complex arithmetic on list items costs a fraction of numpy's scalar
operations, and fixed statements need no loop over the table or index
lookups at run time.  ``__call__`` takes lists only, the right-hand side's
format, and returns the kernel's list; arrays go through ``batch``.  On an
array the kernel would multiply numpy complex scalars, which need not round
like Python's complex numbers on every host.  Its source is
compiled on the first call, at roughly 25 microseconds per entry, so only
maps that are applied to single vectors pay for it.  The statements are
separate, not one sum expression per row, because CPython's compiler
recurses into a long expression and fails on rows of several thousand
entries.

``batch`` broadcasts over leading axes, so one call covers every term
combination of a symbolic product: pass ``(K0, 1, dim)`` and
``(1, K1, dim)`` for the outer product, or equal shapes for row-wise
products.  It works slot by slot over the entry table (``table``): for
each slot it gathers the real and imaginary parts of every entry's input
component at once, as ``(..., E)`` arrays, and advances every entry's
running product by one factor.  It then adds each entry's product into
its output row, one entry at a time in entry order, starting from zeros.
So a call costs about 6 numpy operations per slot and chunk plus 2 per
entry, where a loop over entries costs 6 per slot for every entry.  The
entries go in chunks of about ``_BLOCK`` row x entry products, so the
``(..., E)`` temporaries stay small.  Exponential mode stacks only the
live rows of its terms: at order 7 a stack holds at most 2,000 rows, so a
6-entry map goes in one chunk, and at order 12 up to 39,304, where a chunk
is one entry, the loop over entries again: there the arithmetic outweighs
the per-call overhead, and one entry at a time keeps numpy's inner loops
long.

The two evaluators agree bit for bit, up to the sign of a NaN, which IEEE
754 leaves open.  Python's complex product computes
``(a.real*b.real - a.imag*b.imag, a.real*b.imag + a.imag*b.real)``, the
formula of numpy's complex scalars, and ``batch`` writes exactly that out
in float64 real/imaginary parts.  Every output sum starts from ``0j`` and
adds the same terms in the same order: gathering and chunking only
regroup independent operations.  Neither numpy's vectorised complex
multiply nor ``np.add.reduce`` (pairwise summation) would keep that.
Both round differently in the last bit, and the exponential-mode resonant
recursion amplifies such bits far past the output tolerance.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = ["MultiLinearMap"]

# Row x entry products per entry chunk of ``batch``: each float64
# temporary of a chunk stays near 128 kB.  Exponential mode sends ragged
# stacks of up to 39,304 rows (order 12) through maps of 6 entries;
# unchunked, their (rows, entries) temporaries would raise the process's
# peak memory by megabytes.
_BLOCK = 1 << 14


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

    def __call__(self, *args: list) -> list:
        """Apply to ``arity`` lists of dim Python numbers, as ``tolist`` of an
        array gives; returns ``kernel``'s list of dim Python complex numbers.
        Any other argument raises TypeError: stacks of arrays go through
        ``batch``, which gives the same bits.
        """
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        for a in args:
            if not isinstance(a, list):
                raise TypeError(f"arguments must be lists, got {type(a).__name__}; use batch")
        return self.kernel(*args)

    def batch(self, *args: np.ndarray) -> np.ndarray:
        """Apply to ``arity`` stacks of vectors, broadcasting leading axes.

        Each argument has shape ``(..., dim)``; the result has the broadcast
        leading shape followed by ``dim``, and every row equals ``__call__``
        on the matching argument rows (as lists) bit for bit.

        The entry table is walked in chunks of about ``_BLOCK`` row x entry
        products, or one entry where its rows alone hold more.  In a chunk,
        slot s gathers ``x_s[..., ins[:, s]]`` once for all its entries, and
        entry e's product is then added into ``out[..., outs[e]]``.  Chunks
        and entries go in table order, so each output sum has the terms and
        the order of ``__call__``.
        """
        if len(args) != self.arity:
            raise ValueError(f"expected {self.arity} arguments, got {len(args)}")
        args = [np.asarray(a, dtype=complex) for a in args]
        for a in args:
            if a.ndim < 1 or a.shape[-1] != self.dim:
                raise ValueError(f"argument trailing axis must have length {self.dim}")
        lead = np.broadcast_shapes(*(a.shape[:-1] for a in args))
        out = np.zeros(lead + (self.dim,), dtype=complex)
        out_re, out_im = out.real, out.imag
        outs, ins, vals = self.table
        chunk = max(1, _BLOCK // max(1, math.prod(lead)))
        for lo in range(0, len(outs), chunk):
            sel = slice(lo, lo + chunk)
            pr, pi = vals.real[sel], vals.imag[sel]
            for a, j in zip(args, ins[sel].T):
                xr, xi = a.real[..., j], a.imag[..., j]
                re = pr * xr
                re -= pi * xi
                im = pr * xi
                im += pi * xr
                pr, pi = re, im
            for e, i in enumerate(outs[sel]):
                out_re[..., i] += pr[..., e]
                out_im[..., i] += pi[..., e]
        return out

    @cached_property
    def kernel(self):
        """The map as a straight-line Python function, generated once per map.

        ``kernel(x0, ..., x{m-1})`` takes sequences of Python complex
        numbers and returns the dim output components as a list.  Each
        output starts at ``0j``, and each entry is one statement that
        multiplies its value by its input components from left to right
        and adds the product into its output, in table order.  Entry values
        are bound by name in the namespace the source runs in, never
        written into the source; the indices are the validated ints.
        """
        slots = [f"x{s}" for s in range(self.arity)]
        outs = [f"o{i}" for i in range(self.dim)]
        lines = [f"def kernel({', '.join(slots)}):"]
        lines += [f"    {o} = 0j" for o in outs]
        namespace = {}
        for e, (i, ins, val) in enumerate(self.entries):
            namespace[f"v{e}"] = val
            factors = "".join(f"*{x}[{j}]" for x, j in zip(slots, ins))
            lines.append(f"    o{i} += v{e}{factors}")
        lines.append(f"    return [{', '.join(outs)}]")
        exec(compile("\n".join(lines), "<MultiLinearMap.kernel>", "exec"), namespace)
        return namespace["kernel"]

    @cached_property
    def table(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The entries as arrays, built once per map: output rows ``outs``
        (E,) and input indices ``ins`` (E, arity) as intp, values ``vals``
        (E,) complex."""
        outs = np.array([i for i, _, _ in self.entries], dtype=np.intp)
        ins = np.array([j for _, j, _ in self.entries], dtype=np.intp).reshape(-1, self.arity)
        vals = np.array([v for _, _, v in self.entries], dtype=complex)
        return outs, ins, vals

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

    def is_real(self) -> bool:
        """True when every entry value has a zero imaginary part."""
        return all(v.imag == 0 for _, _, v in self.entries)
