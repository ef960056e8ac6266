"""Shared random-object factories and independent evaluation oracles.

Everything takes an explicit numpy Generator so each test seeds itself
and failures replay deterministically.
"""

from __future__ import annotations

import importlib.util
import itertools
import sys
from pathlib import Path

import numpy as np

from odexpand import ExpPolySum, LogPowerSum, MultiLinearMap
from odexpand.engine import _decompose_values, _match_tol, _ordered_tuples, _value_index
from odexpand.expsum import TRIM_REL as EXP_TRIM_REL
from odexpand.expsum import mul_apply_exp, snap_scalar
from odexpand.logpower import TRIM_REL as LOGPOWER_TRIM_REL
from odexpand.logpower import ShiftedInverseCache, mul_apply_logpower


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
    return q + q.conjugate()


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


def mul_apply_logpower_oracle(G: MultiLinearMap, args) -> LogPowerSum:
    depth = max(a.depth for a in args)
    args = [embed_oracle(a, depth) for a in args]
    raw = []
    for combo in itertools.product(*(a.items() for a in args)):
        alpha = tuple(sum(parts) for parts in zip(*(c[0] for c in combo)))
        raw.append((alpha, G(*(c[1] for c in combo))))
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
    cache = ShiftedInverseCache(A)
    raw = [(a, cache.solve(a[0], v)) for a, v in p.items()]
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


def build_exp_oracle(dim: int, raw) -> ExpPolySum:
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
    return ExpPolySum(dim=dim, terms=out)


def mul_apply_exp_oracle(G: MultiLinearMap, args) -> ExpPolySum:
    raw = []
    for combo in itertools.product(*(a.items() for a in args)):
        nu = sum(nu_l for nu_l, _ in combo)
        polys = [c for _, c in combo]
        degs = [c.shape[0] - 1 for c in polys]
        out = np.zeros((sum(degs) + 1, G.dim), dtype=complex)
        for idx in itertools.product(*(range(d + 1) for d in degs)):
            out[sum(idx)] += G(*(polys[slot][j] for slot, j in enumerate(idx)))
        raw.append((nu, out))
    return build_exp_oracle(G.dim, raw)


def interaction_sum_oracle(spec, mus, terms, k: int):
    """The interactions landing on mus[k], one map call per distinct ordering.

    The engine's sum before it symmetrized power/log-mode maps: every
    multiset of earlier rates that adds up to mus[k], every distinct ordering
    of it, and every map of that arity, each applied as written.
    """
    mul_apply = mul_apply_exp if spec.mode == "exponential" else mul_apply_logpower
    contributions = []
    max_arity = max((G.arity for G in spec.maps), default=0)
    for parts in _decompose_values(mus[:k], mus[k], max_arity):
        maps_m = [G for G in spec.maps if G.arity == len(parts)]
        for ordered in _ordered_tuples(parts):
            args = [terms[_value_index(mus[:k], v)] for v in ordered]
            if any(a.is_zero() for a in args):
                continue
            contributions += [mul_apply(G, args) for G in maps_m]
    return contributions


def assert_bitwise_equal(p, q) -> None:
    """Same term keys in the same order, and bit-identical coefficients.

    Works for LogPowerSum and ExpPolySum; the sign of every zero counts.
    """
    assert type(p) is type(q) and p.dim == q.dim
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
    a, b = a.embed(depth), b.embed(depth)
    zero = np.zeros(a.dim, dtype=complex)
    worst = 0.0
    for key in set(a.terms) | set(b.terms):
        worst = max(worst, float(abs(a.terms.get(key, zero) - b.terms.get(key, zero)).max()))
    return worst
