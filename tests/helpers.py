"""Shared random-object factories and independent evaluation oracles.

Everything takes an explicit numpy Generator so each test seeds itself
and failures replay deterministically.
"""

from __future__ import annotations

import bisect
import cmath
import importlib.util
import itertools
import math
import sys
import tracemalloc
from pathlib import Path

import numpy as np

from odexpand import ExpPolySum, LogPowerSum, MultiLinearMap, rk45
from odexpand.engine import (
    _chi_source,
    _decompose_values,
    _forcing_at,
    _match_tol,
    _ordered_tuples,
    eval_partial_sum,
)
from odexpand.expsum import TRIM_REL as EXP_TRIM_REL
from odexpand.expsum import mul_apply_exp, snap_scalar
from odexpand.logpower import TRIM_REL as LOGPOWER_TRIM_REL
from odexpand.logpower import descent_op, mul_apply_logpower
from odexpand.realify import COS, SIN, SYMMETRY_TOL, _real_rows, asymmetry_witness


def bench_module(name: str):
    """bench/<name>.py, loaded from its file once (bench/ is not a package)."""
    key = f"bench_{name}"
    if key not in sys.modules:
        path = Path(__file__).resolve().parent.parent / "bench" / f"{name}.py"
        spec = importlib.util.spec_from_file_location(key, path)
        module = importlib.util.module_from_spec(spec)
        # dataclasses look their module up in sys.modules
        sys.modules[key] = module
        spec.loader.exec_module(module)
    return sys.modules[key]


def cvec(rng, n: int) -> np.ndarray:
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def mode_degree(mode: ExpPolySum) -> int:
    """Polynomial degree of a kernel mode, which is one exponential term."""
    (_, rows), = mode.items()
    return rows.shape[0] - 1


def jordan_plant(rng, n: int, lam: int):
    """Integer similarity of a single Jordan block: exact spectrum {lam}."""
    J = np.eye(n, dtype=np.int64) * lam
    for i in range(n - 1):
        J[i, i + 1] = 1
    L = np.eye(n, dtype=np.int64)
    U = np.eye(n, dtype=np.int64)
    L[np.tril_indices(n, -1)] = rng.integers(-2, 3, size=n * (n - 1) // 2)
    U[np.triu_indices(n, 1)] = rng.integers(-2, 3, size=n * (n - 1) // 2)
    Q = L @ U
    Qi = np.round(np.linalg.inv(Q)).astype(np.int64)
    assert np.array_equal(Q @ Qi, np.eye(n, dtype=np.int64))
    return (Q @ J @ Qi).astype(float)


def random_matrix(rng, n: int, re_lo: float = 0.5, re_hi: float = 3.0) -> np.ndarray:
    """Well-conditioned matrix with eigenvalue real parts in [re_lo, re_hi].

    Upper-triangular eigenstructure under a unitary similarity, so the
    spectrum is exact and the conditioning stays tame while the matrix is
    generically non-normal.
    """
    re = rng.uniform(re_lo, re_hi, size=n)
    im = rng.uniform(-2.0, 2.0, size=n)
    T = np.diag(re + 1j * im).astype(complex)
    iu = np.triu_indices(n, 1)
    T[iu] = 0.4 * (rng.standard_normal(len(iu[0])) + 1j * rng.standard_normal(len(iu[0])))
    Q, _ = np.linalg.qr(cvec(rng, n * n).reshape(n, n))
    return Q @ T @ Q.conj().T


def random_real_matrix(rng, n: int, re_lo: float = 0.5, re_hi: float = 3.0) -> np.ndarray:
    """Real matrix with eigenvalue real parts in [re_lo, re_hi]."""
    D = np.diag(rng.uniform(re_lo, re_hi, size=n))
    Q, _ = np.linalg.qr(rng.standard_normal((n, n)))
    N = 0.3 * np.triu(rng.standard_normal((n, n)), 1)
    return Q @ (D + N) @ Q.T


def random_expsum(
    rng,
    dim: int,
    n_terms: int = 3,
    max_degree: int = 2,
    re_lo: float = -3.0,
    re_hi: float = -0.2,
) -> ExpPolySum:
    raw = []
    for _ in range(n_terms):
        nu = complex(rng.uniform(re_lo, re_hi), rng.uniform(-2.0, 2.0))
        deg = int(rng.integers(0, max_degree + 1))
        raw.append((nu, cvec(rng, (deg + 1) * dim).reshape(deg + 1, dim)))
    return ExpPolySum.build(dim, raw)


def random_alpha(rng, depth: int, m: int | None = None, mu: float | None = None):
    """Exponent tuple of length depth+2; pinned to the (m, mu) class if given."""
    a = [complex(rng.uniform(-1.5, 1.5), rng.uniform(-1.5, 1.5)) for _ in range(depth + 2)]
    if m is not None:
        for j in range(min(m + 1, depth + 2)):
            a[j] = complex(0.0, a[j].imag)
        if m + 1 < depth + 2:
            a[m + 1] = complex(mu, a[m + 1].imag)
    return tuple(a)


def random_logpower(
    rng,
    dim: int,
    depth: int,
    n_terms: int = 3,
    m: int | None = None,
    mu: float | None = None,
) -> LogPowerSum:
    raw = [(random_alpha(rng, depth, m, mu), cvec(rng, dim)) for _ in range(n_terms)]
    return LogPowerSum.build(dim, depth, raw)


def random_multilinear(
    rng, arity: int, dim: int, n_entries: int = 4, real: bool = False
) -> MultiLinearMap:
    entries = []
    for _ in range(n_entries):
        out = int(rng.integers(0, dim))
        idx = tuple(int(rng.integers(0, dim)) for _ in range(arity))
        val = rng.standard_normal() if real else complex(*rng.standard_normal(2))
        entries.append((out, idx, val))
    return MultiLinearMap(arity, dim, tuple(entries))


def scalar_power(arity: int) -> MultiLinearMap:
    """The 1-d map (x1, ..., xm) -> x1*...*xm, i.e. G(y) = y**m."""
    return MultiLinearMap(arity=arity, dim=1, entries=((0, (0,) * arity, 1.0),))


def call_on_vectors(G: MultiLinearMap, *vecs) -> np.ndarray:
    """G on single vectors through ``__call__``, each passed as the list of
    Python numbers it takes: the kernel's arithmetic, not ``batch``'s, for
    the term-by-term oracles of the batched products."""
    return np.array(G(*(np.asarray(v, dtype=complex).tolist() for v in vecs)), dtype=complex)


def dense_apply(G: MultiLinearMap, args) -> np.ndarray:
    """Apply a multilinear map by brute force over its entry list.

    Independent of MultiLinearMap.__call__: no shared code beyond the
    entry tuples themselves.
    """
    out = np.zeros(G.dim, dtype=complex)
    for target, idx, val in G.entries:
        prod = val
        for k, j in enumerate(idx):
            prod = prod * args[k][j]
        out[target] += prod
    return out


def burgers_galerkin_map(n: int) -> MultiLinearMap:
    """The quadratic map of viscous Burgers' equation u_t + u u_x = u_xx on
    (0, pi) with u = 0 at both ends, projected on sin(x), ..., sin(n x).

    With u = sum_p a_p sin(p x), u u_x = sum_{p,q} q a_p a_q sin(p x) cos(q x)
    and 2 sin(p x) cos(q x) = sin((p+q) x) + sin((p-q) x), so G_k(a, a)
    collects -q/2 from p + q = k and from p - q = k, and +q/2 from
    q - p = k.  Component k - 1 holds mode k.  There are 3 n (n - 1) / 2
    entries: 84, 360 and 1,488 at n = 8, 16 and 32.
    """
    entries = []
    for k in range(1, n + 1):
        for p in range(1, n + 1):
            for q in range(1, n + 1):
                if p + q == k or p - q == k:
                    entries.append((k - 1, (p - 1, q - 1), -q / 2))
                elif q - p == k:
                    entries.append((k - 1, (p - 1, q - 1), q / 2))
    return MultiLinearMap(2, n, tuple(entries))


def batch_oracle(G: MultiLinearMap, *args: np.ndarray) -> np.ndarray:
    """``G.batch`` as a loop over the entry table, one entry at a time.

    Each entry's product runs slot by slot in float64 real/imaginary parts,
    in the order of Python's complex product, over the whole broadcast
    stack, and is then added into its output row.  This is how ``batch``
    worked before it gathered each slot over every entry at once; the two
    must agree bit for bit.
    """
    args = [np.asarray(a, dtype=complex) for a in args]
    lead = np.broadcast_shapes(*(a.shape[:-1] for a in args))
    parts = [(a.real, a.imag) for a in args]
    out = np.zeros(lead + (G.dim,), dtype=complex)
    out_re, out_im = out.real, out.imag
    for i, ins, val in G.entries:
        pr, pi = val.real, val.imag
        for (re, im), j in zip(parts, ins):
            xr, xi = re[..., j], im[..., j]
            pr, pi = pr * xr - pi * xi, pr * xi + pi * xr
        out_re[..., i] += pr
        out_im[..., i] += pi
    return out


def eval_expsum_oracle(s: ExpPolySum, t: float) -> np.ndarray:
    """Pointwise evaluation without Horner or any ExpPolySum code path."""
    out = np.zeros(s.dim, dtype=complex)
    for nu, rows in s.items():
        for j, row in enumerate(rows):
            out += row * (t**j) * np.exp(nu * t)
    return out


def kernel_exp_oracle(s: ExpPolySum, t: float) -> list:
    """One time, in plain Python loops: eval's arithmetic on Python complex
    numbers, which ``ExpPolySum.emit``'s statements must match bit for bit.

    tc = complex(t); per term, e = cmath.exp(nu * tc); per output, the sum
    from 0j in term order of p * e, p from Horner's rule from 0j over every
    row of the term.  No step is skipped or folded, and every product is a
    complex one.
    """
    tc = complex(t)
    out = [0j] * s.dim
    for nu, rows in s.items():
        e = cmath.exp(nu * tc)
        for i in range(s.dim):
            p = 0j
            for row in rows.tolist()[::-1]:
                p = p * tc + row[i]
            out[i] += p * e
    return out


def eval_exp_horner_oracle(s: ExpPolySum, t: float) -> np.ndarray:
    """Term-by-term Horner evaluation, summed in items() order."""
    out = np.zeros(s.dim, dtype=complex)
    for nu, rows in s.items():
        p = np.zeros(s.dim, dtype=complex)
        for row in rows[::-1]:
            p = p * t + row
        out += p * np.exp(nu * t)
    return out


def sym_logpower(rng, dim: int, depth: int, n_terms: int = 2) -> LogPowerSum:
    """Conjugation-symmetric sum: q + conj(q) for a random q."""
    q = random_logpower(rng, dim, depth, n_terms)
    return q + conjugate_oracle(q)


# ---------------------------------------------------------------------------
# Term-by-term oracles for the batched interaction kernel: one G call per
# term combination and dict-based canonicalization, as the package did
# before it batched both.  The array code must reproduce them bit for bit.


def build_logpower_oracle(dim: int, depth: int, raw) -> LogPowerSum:
    acc: dict[tuple[complex, ...], np.ndarray] = {}
    for alpha, xi in raw:
        key = tuple(snap_scalar(complex(a)) for a in alpha)
        assert len(key) == depth + 2
        vec = np.asarray(xi, dtype=complex).reshape(-1)
        if key in acc:
            acc[key] = acc[key] + vec
        else:
            acc[key] = vec.copy()
    norms = {k: float(np.linalg.norm(v)) for k, v in acc.items()}
    top = max(norms.values(), default=0.0)
    keys = [
        k
        for k in sorted(acc, key=lambda a: tuple((z.real, z.imag) for z in a))
        if norms[k] > 0.0 and norms[k] >= LOGPOWER_TRIM_REL * top
    ]
    return LogPowerSum(
        dim,
        depth,
        np.array(keys, dtype=complex).reshape(len(keys), depth + 2),
        np.array([acc[k] for k in keys], dtype=complex).reshape(len(keys), dim),
    )


def mul_apply_logpower_oracle(G: MultiLinearMap, args, weight: float = 1.0) -> LogPowerSum:
    depth = max(a.depth for a in args)
    args = [embed_oracle(a, depth) for a in args]
    raw = []
    for combo in itertools.product(*(a.items() for a in args)):
        alpha = tuple(sum(parts) for parts in zip(*(c[0] for c in combo)))
        xi = call_on_vectors(G, *(c[1] for c in combo))
        raw.append((alpha, xi if weight == 1.0 else xi * weight))
    return build_logpower_oracle(G.dim, depth, raw)


# Term-by-term oracles for the array operators of LogPowerSum: the loops
# over (exponent tuple, coefficient) pairs the package ran before its sums
# became two arrays.  Each operator must reproduce its loop bit for bit.


def scale_oracle(p: LogPowerSum, a: complex) -> LogPowerSum:
    return build_logpower_oracle(p.dim, p.depth, [(k, a * v) for k, v in p.items()])


def apply_matrix_oracle(p: LogPowerSum, A: np.ndarray) -> LogPowerSum:
    A = np.asarray(A, dtype=complex)
    return build_logpower_oracle(p.dim, p.depth, [(k, A @ v) for k, v in p.items()])


def conjugate_oracle(p: LogPowerSum) -> LogPowerSum:
    raw = [(tuple(a.conjugate() for a in k), v.conjugate()) for k, v in p.items()]
    return build_logpower_oracle(p.dim, p.depth, raw)


def embed_oracle(p: LogPowerSum, depth: int) -> LogPowerSum:
    pad = (0j,) * (depth - p.depth)
    return build_logpower_oracle(p.dim, depth, [(k + pad, v) for k, v in p.items()])


def weight_op_oracle(j: int, p: LogPowerSum) -> LogPowerSum:
    return build_logpower_oracle(p.dim, p.depth, [(a, a[j + 1] * v) for a, v in p.items()])


def descent_op_oracle(p: LogPowerSum) -> LogPowerSum:
    raw = []
    for alpha, xi in p.items():
        for j in range(0, p.depth + 1):
            aj = alpha[j + 1]
            if aj == 0:
                continue
            shifted = list(alpha)
            for i in range(0, j + 1):
                shifted[i + 1] = shifted[i + 1] - 1
            raw.append((tuple(shifted), aj * xi))
    return build_logpower_oracle(p.dim, p.depth, raw)


def shifted_inverse_oracle(A: np.ndarray, p: LogPowerSum) -> LogPowerSum:
    """One ``np.linalg.solve`` per term, on A + snapped a(-1) times the identity."""
    A = np.asarray(A, dtype=complex)
    eye = np.eye(A.shape[0])
    raw = [(a, np.linalg.solve(A + snap_scalar(a[0]) * eye, v)) for a, v in p.items()]
    return build_logpower_oracle(p.dim, p.depth, raw)


def _trim_poly_oracle(coeffs: np.ndarray):
    norms = np.sqrt((abs(coeffs) ** 2).sum(axis=1))
    top = norms.max() if norms.size else 0.0
    if top == 0.0:
        return None
    keep = norms >= EXP_TRIM_REL * top
    coeffs = coeffs.copy()
    coeffs[~keep] = 0.0
    return coeffs[: np.nonzero(keep)[0][-1] + 1]


def exp_oracle_terms(dim: int, raw) -> dict[complex, np.ndarray]:
    """Canonical {exponent: rows} dict of raw (exponent, rows) pairs, in (Re, Im) order.

    Each term's rows are cut after its last kept row.
    """
    acc: dict[complex, np.ndarray] = {}
    for nu, coeffs in raw:
        key = snap_scalar(complex(nu))
        arr = np.atleast_2d(np.asarray(coeffs, dtype=complex))
        if key in acc:
            old = acc[key]
            merged = np.zeros((max(old.shape[0], arr.shape[0]), dim), dtype=complex)
            merged[: old.shape[0]] += old
            merged[: arr.shape[0]] += arr
            acc[key] = merged
        else:
            acc[key] = arr.astype(complex, copy=True)
    out = {}
    for key in sorted(acc, key=lambda z: (z.real, z.imag)):
        trimmed = _trim_poly_oracle(acc[key])
        if trimmed is not None:
            out[key] = trimmed
    return out


def build_exp_oracle(dim: int, raw) -> ExpPolySum:
    """exp_oracle_terms packed into the canonical arrays, zero-padded to the longest term."""
    terms = exp_oracle_terms(dim, raw)
    rows = np.zeros((len(terms), max([1] + [c.shape[0] for c in terms.values()]), dim), complex)
    for k, c in enumerate(terms.values()):
        rows[k, : c.shape[0]] = c
    return ExpPolySum(dim, np.array(list(terms), dtype=complex), rows)


def mul_apply_exp_oracle(G: MultiLinearMap, args) -> ExpPolySum:
    raw = []
    for combo in itertools.product(*(a.items() for a in args)):
        nu = sum(nu_l for nu_l, _ in combo)
        polys = [c for _, c in combo]
        degs = [c.shape[0] - 1 for c in polys]
        out = np.zeros((sum(degs) + 1, G.dim), dtype=complex)
        for idx in itertools.product(*(range(d + 1) for d in degs)):
            out[sum(idx)] += call_on_vectors(G, *(polys[slot][j] for slot, j in enumerate(idx)))
        raw.append((nu, out))
    return build_exp_oracle(G.dim, raw)


def mul_apply_exp_padded_oracle(G: MultiLinearMap, args) -> ExpPolySum:
    """``mul_apply_exp`` as it ran on zero-padded stacks, before they went ragged.

    One ``G.batch`` call over every (term, row) choice, padding rows
    included: argument s lays its terms along axis 2s and its zero-padded
    rows along axis 2s+1.  The degree fold then adds one (K_0, ..., K_m-1,
    dim) slice per row tuple, in lexicographic order; the padding products
    are exact zeros added to sums that start at +0.0.
    """
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
    return ExpPolySum.from_pieces(G.dim, [(nu.reshape(-1), out.reshape((-1,) + out.shape[m:]))])


# Term-by-term oracles of ExpPolySum's addition and of d/dt: the loops over
# (exponent, rows) pairs the package ran while its sums were dicts.  Addition
# must reproduce its loop bit for bit, and so must d/dt, which now runs on
# the ladder view (time_derivative(ladder_view(s))).


def add_exp_oracle(s: ExpPolySum, other: ExpPolySum) -> ExpPolySum:
    return build_exp_oracle(s.dim, s.items() + other.items())


def derivative_exp_oracle(s: ExpPolySum) -> ExpPolySum:
    raw = []
    for nu, c in s.items():
        out = nu * c.astype(complex, copy=True)
        for j in range(c.shape[0] - 1):
            out[j] += (j + 1) * c[j + 1]
        raw.append((nu, out))
    return build_exp_oracle(s.dim, raw)


def ladder_view_raw_oracle(s: ExpPolySum) -> list:
    """The (alpha, row) pairs of the depth-0 ladder view, term by term, j ascending."""
    return [((nu, j), row) for nu, rows in s.items() for j, row in enumerate(rows) if np.any(row)]


def ladder_view_oracle(s: ExpPolySum) -> LogPowerSum:
    """The stored nonzero rows themselves, with no re-trim against the sum."""
    raw = ladder_view_raw_oracle(s)
    alphas = np.array([a for a, _ in raw], dtype=complex).reshape(-1, 2)
    xis = np.array([v for _, v in raw], dtype=complex).reshape(-1, s.dim)
    return LogPowerSum(s.dim, 0, alphas, xis)


def to_trig_ladder_oracle(p: LogPowerSum) -> list:
    """The real-form loop before the pair rule and the rotation: sort-key
    tuples pick each pair's member, and a four-way branch on the number of
    sines picks the coefficient."""
    witness = asymmetry_witness(p)
    if witness is not None:
        raise ValueError(
            f"sum is not conjugation-symmetric at term {witness}; no real form exists"
        )
    deepest = p.depth + 1  # tuple index of the deepest component
    needs_lift = bool((p.alphas[:, deepest].imag != 0.0).any())
    out_depth = p.depth + 1 if needs_lift else p.depth
    raw = []
    scale = max(p.sup_norm(), 1.0)
    for alpha, xi in p.items():
        # canonical representative: skip terms whose conjugate partner sorts
        # first, so each pair is emitted once
        key_sort = tuple((a.real, a.imag) for a in alpha)
        conj_sort = tuple((a.real, -a.imag) for a in alpha)
        if conj_sort < key_sort:
            continue
        self_conjugate = conj_sort == key_sort
        a_real = [a.real for a in alpha] + [0.0] * (out_depth - p.depth)
        osc = [(i, alpha[i].imag) for i in range(len(alpha)) if alpha[i].imag != 0.0]
        if self_conjugate:
            if float(abs(xi.imag).max()) > SYMMETRY_TOL * scale:
                raise ValueError("self-conjugate term has an imaginary coefficient")
            raw.append((a_real, (), xi.real.copy()))
            continue
        x, y = xi.real, xi.imag
        for picks in itertools.product((COS, SIN), repeat=len(osc)):
            sins = sum(1 for ph in picks if ph == SIN)
            quarter = sins % 4
            if quarter == 0:
                vec = 2.0 * x
            elif quarter == 1:
                vec = -2.0 * y
            elif quarter == 2:
                vec = -2.0 * x
            else:
                vec = 2.0 * y
            factors = []
            for (i, b), ph in zip(osc, picks):
                # imaginary exponent on tuple index i (component i-1) becomes
                # a trig factor on component i
                factors.append((i, b, ph))
            raw.append((a_real, factors, vec))
    return _real_rows(p.dim, out_depth, raw)


def assert_trig_bitwise_equal(p: list, q: list) -> None:
    """Two real forms as rows: the same keys (so the same depth) in the
    same order, bit-identical coefficients (the sign of every zero counts)."""
    assert [key for key, _ in p] == [key for key, _ in q]
    for (_, u), (_, v) in zip(p, q):
        assert_arrays_bitwise_equal(u, v)


def solve_nonresonant_oracle(B: np.ndarray, p: np.ndarray) -> np.ndarray:
    """The non-resonant back-substitution through ``lu_factor``/``lu_solve``.

    One ``lu_solve`` call per degree, as the resolvent ran before it called
    LAPACK getrs directly.
    """
    import scipy.linalg

    lu_piv = scipy.linalg.lu_factor(B)
    d = p.shape[0]
    q = np.zeros_like(p)
    for j in range(d - 1, -1, -1):
        rhs = p[j].copy()
        if j + 1 < d:
            rhs -= (j + 1) * q[j + 1]
        q[j] = scipy.linalg.lu_solve(lu_piv, rhs)
    return q


def interaction_sum_oracle(spec, mus, terms, k: int):
    """The interactions landing on mus[k], one map call per distinct ordering.

    The engine's sum before it symmetrized power/log-mode maps: every
    multiset of earlier rates that adds up to mus[k], every distinct ordering
    of it, and every map of that arity, each applied as written.  The pieces
    have the form the engine's ``_interaction_sum`` returns: ExpPolySums in
    exponential mode, raw (alphas, xis) rows in power and log mode.
    """
    contributions = []
    max_arity = max((G.arity for G in spec.maps), default=0)
    for parts in _decompose_values(mus[:k], mus[k], max_arity):
        maps_m = [G for G in spec.maps if G.arity == len(parts)]
        for ordered in _ordered_tuples(parts):
            if any(terms[i].is_zero() for i in ordered):
                continue
            if spec.mode == "exponential":
                contributions += [mul_apply_exp(G, [terms[i] for i in ordered]) for G in maps_m]
            else:
                contributions += [mul_apply_logpower(G, terms, [ordered], [1.0]) for G in maps_m]
    return contributions


def rate_rhs_per_multiset_oracle(spec, mus, terms, k: int) -> LogPowerSum:
    """Power/log-mode right-hand side at mus[k], one canonical piece at a time.

    The engine's loop before it stacked each order's products: one
    canonicalized product per (multiset, map), term by term through
    ``G.symmetrized`` with the multiset's weight, then the forcing and minus
    the descent term, each added onto the running sum with ``+``.
    """
    assert spec.mode in ("power", "log")
    pieces = []
    max_arity = max((G.arity for G in spec.maps), default=0)
    for parts in _decompose_values(mus[:k], mus[k], max_arity):
        if any(terms[i].is_zero() for i in parts):
            continue
        weight = 1.0 / math.prod(math.factorial(parts.count(i)) for i in set(parts))
        args = [terms[i] for i in parts]
        pieces += [
            mul_apply_logpower_oracle(G.symmetrized, args, weight)
            for G in spec.maps
            if G.arity == len(parts)
        ]
    f_k = _forcing_at(spec, mus[k])
    if f_k is not None:
        pieces.append(f_k)
    lam = _chi_source(mus, k) if spec.mode == "power" else None
    if lam is not None and not terms[lam].is_zero():
        pieces.append(descent_op(terms[lam]).scale(-1.0))
    total = LogPowerSum.zero(spec.dim, max([0] + [t.depth for t in terms[:k]]))
    for piece in pieces:
        total = total + piece
    return total


def assert_bitwise_equal(p, q) -> None:
    """Same term keys in the same order, and bit-identical coefficients.

    Works for LogPowerSum and ExpPolySum; the sign of every zero counts.
    """
    assert type(p) is type(q) and p.dim == q.dim
    if isinstance(p, ExpPolySum):
        # the canonical arrays themselves, padding included
        assert_arrays_bitwise_equal(p.nus, q.nus)
        assert_arrays_bitwise_equal(p.rows, q.rows)
    assert list(p.terms) == list(q.terms)
    for key in p.terms:
        a, b = p.terms[key], q.terms[key]
        assert a.shape == b.shape, key
        assert np.array_equal(a, b), key
        assert np.array_equal(np.signbit(a.real), np.signbit(b.real)), key
        assert np.array_equal(np.signbit(a.imag), np.signbit(b.imag)), key


def rates_upto(ladder, cutoff: float) -> tuple[float, ...]:
    """Realized rates of ``ladder`` up to ``cutoff`` (within the match tolerance).

    The rates come out increasing, so ``take`` doubles its count until the
    last rate passes the cutoff.
    """
    bound = cutoff + _match_tol(cutoff)
    count = 1
    while ladder.take(count)[-1] <= bound:
        count *= 2
    return tuple(v for v in ladder.take(count) if v <= bound)


def coeff_distance_exp(a: ExpPolySum, b: ExpPolySum) -> float:
    """Max entrywise coefficient deviation between two canonical sums."""
    assert a.dim == b.dim
    worst = 0.0
    for nu in set(a.terms) | set(b.terms):
        ca = a.terms.get(nu, np.zeros((0, a.dim)))
        cb = b.terms.get(nu, np.zeros((0, a.dim)))
        d = max(ca.shape[0], cb.shape[0])
        pa = np.zeros((d, a.dim), dtype=complex)
        pb = np.zeros((d, a.dim), dtype=complex)
        pa[: ca.shape[0]] = ca
        pb[: cb.shape[0]] = cb
        worst = max(worst, float(abs(pa - pb).max(initial=0.0)))
    return worst


def coeff_distance_logpower(a: LogPowerSum, b: LogPowerSum) -> float:
    """Max coefficient deviation between two canonical sums, at the larger depth."""
    assert a.dim == b.dim
    depth = max(a.depth, b.depth)
    a, b = (LogPowerSum.from_pieces(p.dim, depth, [(p.alphas, p.xis)]) for p in (a, b))
    zero = np.zeros(a.dim, dtype=complex)
    worst = 0.0
    for key in set(a.terms) | set(b.terms):
        worst = max(worst, float(abs(a.terms.get(key, zero) - b.terms.get(key, zero)).max()))
    return worst


# ---------------------------------------------------------------------------
# Pointwise right-hand side and two per-stage integrators.  The scalar loop
# does ``rk45.integrate_rhs``'s arithmetic with one rhs(t, y) call per stage,
# so the stacked forcing must reproduce its trajectories bit for bit.  The
# numpy loop is the integrator as it ran on arrays, with BLAS stage
# products; the package must agree with it within a measured bound.

# Dormand-Prince 5(4) tableau: row i of DP_A weighs stages 1..i for stage
# i + 1's input, and row 6 is the 5th-order weights (FSAL).
DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
DP_A = tuple(
    np.array(row)
    for row in (
        (),
        (1 / 5,),
        (3 / 40, 9 / 40),
        (44 / 45, -56 / 15, 32 / 9),
        (19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729),
        (9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656),
        (35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84),
    )
)
DP_B4 = np.array((5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40))
DP_E = np.append(DP_A[6], 0.0) - DP_B4  # 5th minus 4th order weights


def eval_logpower_oracle(p: LogPowerSum, t: float) -> np.ndarray:
    """One time: a math.log ladder, one matrix-vector product, one vector-matrix product."""
    logs = [float(t)]
    for _ in range(p.depth + 1):
        logs.append(math.log(logs[-1]))
    return np.exp(p.alphas @ np.array(logs)) @ p.xis


def kernel_logpower_oracle(p: LogPowerSum, t: float) -> list:
    """One time, in plain Python loops: the arithmetic of ``LogPowerSum.emit``.

    A math.log ladder; per term, zr and zi summed from 0.0 over the nonzero
    real and imaginary exponent parts, left to right, and math.exp(zr) for
    an all-real term, else cmath.exp(complex(zr, zi)); per output, the sum
    from 0.0 over the terms with a nonzero coefficient there, in term order,
    of each product written in float parts.
    """
    logs = [float(t)]
    for _ in range(p.depth + 1):
        logs.append(math.log(logs[-1]))
    exps = []
    for alpha in p.alphas.tolist():
        zr = zi = 0.0
        for a, x in zip(alpha, logs):
            if a.real:
                zr += a.real * x
            if a.imag:
                zi += a.imag * x
        real = not any(a.imag for a in alpha)
        exps.append(math.exp(zr) if real else cmath.exp(complex(zr, zi)))
    out = []
    for column in p.xis.T.tolist():
        re = im = 0.0
        for e, x in zip(exps, column):
            if not x:
                continue
            if isinstance(e, float):
                re += x.real * e
                im += x.imag * e
            else:
                re += x.real * e.real - x.imag * e.imag
                im += x.real * e.imag + x.imag * e.real
        out.append(complex(re, im))
    return out


def emitted(term, prefix: str = "v_", namespace: dict | None = None):
    """t -> [value of each component at t], from the term's ``emit``
    statements alone, compiled into one function of a float."""
    namespace = {} if namespace is None else namespace
    lines = ["def value(t):"] + [f"    {x}" for x in term.emit(prefix, namespace)]
    lines.append(f"    return [{''.join(f'{prefix}{i}, ' for i in range(term.dim))}]")
    exec(compile("\n".join(lines), "<emitted>", "exec"), namespace)
    return namespace["value"]


def emitted_rows(term, times) -> np.ndarray:
    """One row per time of the term's emitted statements, as a complex array."""
    value = emitted(term)
    return np.array([value(t) for t in times], dtype=complex).reshape(len(times), term.dim)


def linear_map(A: np.ndarray) -> MultiLinearMap:
    """y -> A y as an arity-1 map of A's nonzero entries."""
    return MultiLinearMap(1, A.shape[0], tuple((i, (j,), A[i, j]) for i, j in zip(*np.nonzero(A))))


def field_oracle(spec):
    """The autonomous field y -> -A y + multilinear terms, composed as
    ``numerics.make_rhs`` composed it before it was generated: -A y through
    an arity-1 ``MultiLinearMap`` of A's nonzero entries, then each map of
    ``spec.maps`` applied to the list y and added componentwise as a list,
    in order."""
    linear = linear_map(-spec.matrix)

    def field(y):
        out = linear(y)
        for g in spec.maps:
            out = [a + b for a, b in zip(out, g(*([y] * g.arity)))]
        return out

    return field


def rhs_oracle(spec):
    """Callable t, y -> -A y + multilinear terms + each forcing term at t, in
    order, as a list of Python complex numbers.

    -A y and the multilinear terms come from ``dense_apply``, not
    ``G(...)``, and power/log forcing from ``kernel_logpower_oracle``, not
    ``LogPowerSum.emit``, so a fault in generated code shows against this
    oracle.
    """
    neg_A = linear_map(-spec.matrix)

    def rhs(t, y):
        out = dense_apply(neg_A, [y])
        for g in spec.maps:
            out += dense_apply(g, [y] * g.arity)
        for _, term in spec.forcing:
            if isinstance(term, LogPowerSum):
                out += kernel_logpower_oracle(term, t)
            else:
                out += eval_exp_horner_oracle(term, t)
        return out.tolist()

    return rhs


def _left_sum(weights, values):
    """sum_j w_j v_j over the nonzero weights, added from left to right."""
    terms = [w * v for w, v in zip(weights, values) if w != 0.0]
    acc = terms[0]
    for x in terms[1:]:
        acc = acc + x
    return acc


def _rms_oracle(v) -> float:
    acc = 0.0
    for x in v:
        acc += x * x
    return math.sqrt(acc / len(v))


def _initial_step_scalar_oracle(rhs, t0, y0, f0, rel_tol, abs_tol, t_max):
    u0 = [x for z in y0 for x in (z.real, z.imag)]
    g0 = [x for z in f0 for x in (z.real, z.imag)]
    sc = [abs_tol + rel_tol * abs(x) for x in u0]
    d0 = _rms_oracle([x / s for x, s in zip(u0, sc)])
    d1 = _rms_oracle([x / s for x, s in zip(g0, sc)])
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_max - t0)
    f1 = rhs(t0 + h0, [y + h0 * f for y, f in zip(y0, f0)])
    f1 = [x for z in f1 for x in (z.real, z.imag)]
    d2 = _rms_oracle([(a - b) / s for a, b, s in zip(f1, g0, sc)]) / h0
    if not math.isfinite(d2):
        return 0.25 * h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_max - t0)


def integrate_rhs_scalar_oracle(rhs, y0, t_span, rel_tol: float = 1e-10, abs_tol: float = 1e-12):
    """Dormand-Prince loop on lists of Python complex numbers, with one
    rhs(t, y) call per stage at t + c_i h.

    Each stage input and the error estimate loop over their tableau row,
    leaving out zero weights and adding from left to right.  The first
    non-finite stage ends an attempt, which is retried with h/4.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    rows = [row.tolist() for row in DP_A]
    e_row = DP_E.tolist()
    u = np.array(y0, dtype=complex).reshape(-1).tolist()
    k1 = list(rhs(t0, u))
    if not all(map(cmath.isfinite, k1)):
        raise ValueError("right-hand side not finite at the initial point")
    h = _initial_step_scalar_oracle(rhs, t0, u, k1, rel_tol, abs_tol, t1)
    t = t0
    ts, states, derivs = [t0], [u], [k1]
    err_prev = 1.0
    n_steps = n_rejects = 0
    n_evals = 2
    max_factor = rk45._FAC_MAX
    while t < t1:
        if n_steps > rk45._MAX_STEPS:
            raise RuntimeError("step budget exhausted")
        last = h >= t1 - t
        if last:
            h = t1 - t
        if not h > rk45._TINY * max(abs(t), 1.0):
            raise rk45.StepUnderflow(f"step size underflow at t = {t}")
        ks = [k1]
        for i in range(1, 7):
            x = [y + h * _left_sum(rows[i], col) for y, col in zip(u, zip(*ks))]
            k = list(rhs(t + DP_C[i] * h, x))
            n_evals += 1
            if not all(map(cmath.isfinite, k)):
                break
            ks.append(k)
        if len(ks) < 7:
            h *= 0.25
            n_rejects += 1
            max_factor = 1.0
            continue
        acc = 0.0
        for a, b, col in zip(u, x, zip(*ks)):
            d = h * _left_sum(e_row, col)
            wr = d.real / (abs_tol + rel_tol * max(abs(a.real), abs(b.real)))
            wi = d.imag / (abs_tol + rel_tol * max(abs(a.imag), abs(b.imag)))
            acc += wr * wr + wi * wi
        err = math.sqrt(acc / (2 * len(u)))
        if err <= 1.0:
            t = t1 if last else t + h
            u, k1 = x, ks[6]
            ts.append(t)
            states.append(u)
            derivs.append(k1)
            n_steps += 1
            err_c = max(err, 1e-10)
            factor = rk45._SAFETY * err_c**-rk45._ALPHA * err_prev**rk45._BETA
            h *= min(max_factor, max(rk45._FAC_MIN, factor))
            err_prev = err_c
            max_factor = rk45._FAC_MAX
        else:
            n_rejects += 1
            factor = rk45._SAFETY * err**-rk45._ALPHA
            h *= min(1.0, max(rk45._FAC_MIN, factor))
            max_factor = 1.0
    return _trajectory(ts, states, derivs, n_steps, n_rejects, n_evals, rel_tol, abs_tol)


def _trajectory(ts, states, derivs, n_steps, n_rejects, n_evals, rel_tol, abs_tol):
    return rk45.Trajectory(
        ts=np.array(ts),
        states=np.array(states, dtype=complex),
        derivs=np.array(derivs, dtype=complex),
        meta={
            "steps": n_steps,
            "rejected": n_rejects,
            "rhs_evals": n_evals,
            "rel_tol": rel_tol,
            "abs_tol": abs_tol,
        },
    )


def _initial_step_oracle(rhs, t0, y0, f0, rel_tol, abs_tol, t_max):
    u0, g0 = y0.view(float), f0.view(float)
    sc = abs_tol + rel_tol * np.abs(u0)
    d0 = float(np.sqrt(np.mean((np.abs(u0) / sc) ** 2)))
    d1 = float(np.sqrt(np.mean((np.abs(g0) / sc) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, t_max - t0)
    f1 = np.asarray(rhs(t0 + h0, (u0 + h0 * g0).view(complex)), dtype=complex)
    d2 = float(np.sqrt(np.mean((np.abs(f1.view(float) - g0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100 * h0, h1, t_max - t0)


def integrate_rhs_oracle(rhs, y0, t_span, rel_tol: float = 1e-10, abs_tol: float = 1e-12):
    """Dormand-Prince loop on numpy arrays with one rhs(t, y) call per stage.

    The stages share one (7, n) complex array, each stage input is one BLAS
    product of its tableau row with the array's float view, and the error
    norm runs over the float views.  All six stages run before their
    finiteness is checked.  It advances with t += h on the last step too,
    which can land one ulp short of t_span[1] and then stop with
    StepUnderflow.
    """
    t0, t1 = float(t_span[0]), float(t_span[1])
    if not t1 > t0:
        raise ValueError("t_span must be increasing")
    y = np.array(y0, dtype=complex).reshape(-1)
    K = np.empty((7, y.shape[0]), dtype=complex)
    Kf = K.view(float)
    K[0] = rhs(t0, y)
    if not np.all(np.isfinite(K[0])):
        raise ValueError("right-hand side not finite at the initial point")
    h = _initial_step_oracle(rhs, t0, y, K[0], rel_tol, abs_tol, t1)
    t = t0
    ts, states, derivs = [t0], [y], [K[0].copy()]
    u, au = y.view(float), np.abs(y.view(float))
    err_prev = 1.0
    n_steps = n_rejects = 0
    n_evals = 2
    max_factor = rk45._FAC_MAX
    while t < t1:
        if n_steps > rk45._MAX_STEPS:
            raise RuntimeError("step budget exhausted")
        h = min(h, t1 - t)
        if h <= rk45._TINY * max(abs(t), 1.0):
            raise rk45.StepUnderflow(f"step size underflow at t = {t}")
        for i in range(1, 7):
            u_new = u + h * (DP_A[i] @ Kf[:i])
            K[i] = rhs(t + DP_C[i] * h, u_new.view(complex))
        n_evals += 6
        if not np.isfinite(Kf).all():
            h *= 0.25
            n_rejects += 1
            max_factor = 1.0
            continue
        au_new = np.abs(u_new)
        sc = abs_tol + rel_tol * np.maximum(au, au_new)
        w = h * (DP_E @ Kf) / sc
        err = math.sqrt(w @ w / w.size)
        if err <= 1.0:
            t += h
            u, au = u_new, au_new
            K[0] = K[6]
            ts.append(t)
            states.append(u.view(complex))
            derivs.append(K[6].copy())
            n_steps += 1
            err_c = max(err, 1e-10)
            factor = rk45._SAFETY * err_c**-rk45._ALPHA * err_prev**rk45._BETA
            h *= min(max_factor, max(rk45._FAC_MIN, factor))
            err_prev = err_c
            max_factor = rk45._FAC_MAX
        else:
            n_rejects += 1
            factor = rk45._SAFETY * err**-rk45._ALPHA
            h *= min(1.0, max(rk45._FAC_MIN, factor))
            max_factor = 1.0
    return _trajectory(ts, states, derivs, n_steps, n_rejects, n_evals, rel_tol, abs_tol)


def peak_bytes(f) -> int:
    """Peak bytes numpy and Python allocate while f() runs, under tracemalloc."""
    tracemalloc.start()
    try:
        f()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def assert_arrays_bitwise_equal(a: np.ndarray, b: np.ndarray) -> None:
    """Same shape and dtype, and the same bits in every entry, zeros' signs included."""
    a, b = np.asarray(a), np.asarray(b)
    assert a.shape == b.shape and a.dtype == b.dtype
    assert a.tobytes() == b.tobytes()


def sample_oracle(traj: rk45.Trajectory, t: float) -> np.ndarray:
    """Dense output at one time: a bisect for the step, then cubic Hermite.

    Its squares are np.float64 ** 2, which calls C pow; an array's square
    is x*x, and the two differ in the last bit at about 1 value in 1,200.
    """
    t = float(t)
    if not traj.ts[0] <= t <= traj.ts[-1]:
        raise ValueError(f"t = {t} outside the integrated span")
    i = bisect.bisect_right(traj.ts, t) - 1
    if i >= len(traj.ts) - 1:
        return traj.states[-1].copy()
    t0, t1 = traj.ts[i], traj.ts[i + 1]
    h = t1 - t0
    s = (t - t0) / h
    y0, y1 = traj.states[i], traj.states[i + 1]
    f0, f1 = traj.derivs[i], traj.derivs[i + 1]
    h00 = (1 + 2 * s) * (1 - s) ** 2
    h10 = s * (1 - s) ** 2
    h01 = s * s * (3 - 2 * s)
    h11 = s * s * (s - 1)
    return h00 * y0 + h * h10 * f0 + h01 * y1 + h * h11 * f1


def remainder_series_oracle(
    traj: rk45.Trajectory, expansion, n: int, ts, kernel=None
) -> np.ndarray:
    """|y(t) - S_n(t)| one grid point at a time, each a scalar sample and norm.

    With ``kernel = (k, coeffs)`` and n >= k, S_n also holds the fitted
    kernel modes of order k, sum_i coeffs[i] * mode_i(t), added mode by mode.
    """
    partial = eval_partial_sum(expansion, n, ts)
    if kernel is not None and n >= kernel[0]:
        k, coeffs = kernel
        fitted = 0
        for c, mode in zip(coeffs, expansion.orders[k - 1].kernel):
            fitted = fitted + c * mode.eval(ts)
        partial = partial + fitted
    return np.array(
        [float(np.linalg.norm(sample_oracle(traj, t) - p)) for t, p in zip(ts, partial)]
    )
