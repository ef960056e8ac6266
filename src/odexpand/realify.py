"""Real forms of conjugation-symmetric expansions.

A complex sum whose term map is closed under conjugation (exponents
conjugated, coefficients conjugated) is real-valued.  Its real form is a
view of the same sum, not a term type of its own: a sorted list of
canonical rows ((alpha, factors), vec), each the real ladder power
exp(t)^a(-1) z_0^a(0) ... z_k^a(k) times a product of cos/sin factors
(component j, frequency w > 0, phase), times a real vector.  ``realify``
prints these rows; a config's ``real_trig_ladder`` forcing is written as
rows too, and from_trig_ladder turns them back into a LogPowerSum.

For ladder-power sums an imaginary exponent on component j folds into a
cosine/sine of the next ladder component:

    L_j^(i w) xi + L_j^(-i w) conj(xi)
        = 2 cos(w L_{j+1}) Re(xi) - 2 sin(w L_{j+1}) Im(xi)

so the real form may need depth k+1; it stays at depth k exactly when no
term oscillates in the deepest component.

An exponential sum goes through the same converter, as its depth-0
ladder view (``logpower.ladder_view``): Im nu becomes a cos/sin factor
on t, and the decay e^(Re nu t) stays a real power of exp(t).
"""

from __future__ import annotations

import itertools
from typing import Sequence

import numpy as np

from .expsum import TRIM_REL, ExpPolySum, group_keys, snap_float
from .logpower import LogPowerSum, ladder_view, row_norms

__all__ = [
    "asymmetry_witness",
    "to_trig_poly",
    "to_trig_ladder",
    "from_trig_ladder",
    "imag_residue",
]

COS, SIN = "cos", "sin"

# A term's partner must match its conjugate within SYMMETRY_TOL times
# max(1, the sum's largest coefficient norm).
SYMMETRY_TOL = 1e-12

# weight * i^e by [weight == 2, e]: Re(xi * c) is +-weight * Re xi or Im xi, exactly
_ROTATIONS = np.array([[1, 1j, -1, -1j], [2, 2j, -2, -2j]])


def asymmetry_witness(p):
    """First term breaking conjugation symmetry, or None if symmetric.

    The partner of a term is the one at the componentwise conjugate
    exponent vector; the witness is the offending term's exponent key.
    An ExpPolySum is checked through its depth-0 ladder view, so its
    witness is a (nu, j) key.  One sort of the keys and their conjugates pairs the terms.
    """
    p = ladder_view(p)
    count = p.term_count()
    if count == 0:
        return None
    _, _, group = group_keys(np.concatenate([p.alphas, p.alphas.conj()]))
    owner = np.full(count * 2, -1)
    owner[group[:count]] = np.arange(count)
    partner = owner[group[count:]]
    gap = abs(p.xis[partner] - p.xis.conj()).max(axis=1)
    bad = partner < 0
    if gap.max() > SYMMETRY_TOL:  # else no gap can fail: the scale is at least 1
        bad |= gap > SYMMETRY_TOL * max(p.sup_norm(), 1.0)
    return tuple(p.alphas[bad.argmax()].tolist()) if bad.any() else None


# ---------------------------------------------------------------------------
# real forms: sorted rows ((alpha, factors), vec)


def _merge_rows(dim: int, keys: np.ndarray, vecs: np.ndarray) -> list:
    """The sorted real form ((alpha, factors), vec) of raw rows.  A key row of depth d
    holds the snapped exponents a(-1..d), then w + 1j * (1 for a sine) for each ladder
    component 0..d, w >= 0 the snapped frequency of its trig factor (0: none).  Equal keys
    are summed onto zeros in raw order; zero rows and rows below TRIM_REL are dropped."""
    if vecs.shape[0] == 0:
        return []
    uniq, _, group = group_keys(keys)
    acc = np.zeros((uniq.shape[0], dim))
    np.add.at(acc, group, vecs)
    norms = row_norms(acc)
    keep = (norms > 0.0) & (norms >= TRIM_REL * norms.max())
    kept, width = uniq[keep], (keys.shape[1] + 1) // 2  # width = d + 2
    rows = [
        (tuple(a), tuple((j, x.real, SIN if x.imag else COS) for j, x in enumerate(f) if x))
        for a, f in zip(kept[:, :width].real.tolist(), kept[:, width:].tolist())
    ]
    return sorted(zip(rows, acc[keep]), key=lambda row: row[0])


def _real_rows(dim: int, depth: int, raw) -> list:
    """Canonical real form of raw (alpha, factors, vec) rows: alpha holds real
    exponents of components -1..depth, factors are (component j >= 0, frequency w,
    cos|sin).  Each row is validated and snapped, a negative frequency flipped (sin
    soaks up the sign); _merge_rows merges, trims and sorts them."""
    if depth < -1:
        raise ValueError("depth must be >= -1")
    keys, vecs = [], []
    for alpha, factors, vec in raw:
        a = [snap_float(x) for x in alpha]
        if len(a) != depth + 2:
            raise ValueError(f"exponent vector length {len(a)} != depth+2 = {depth + 2}")
        v = np.asarray(vec, dtype=float).reshape(-1)
        if v.shape[0] != dim:
            raise ValueError("coefficient length mismatch")
        fac = []
        for j, omega, phase in factors:
            if phase not in (COS, SIN):
                raise ValueError(f"phase must be cos or sin, got {phase!r}")
            if j < 0:
                raise ValueError("trig factor index must be >= 0")
            w = snap_float(omega)
            v = -v if w < 0.0 and phase == SIN else v
            if w != 0.0:
                fac.append((int(j), abs(w), phase))
            elif phase == SIN:
                break  # sin(0) kills the term; cos(0) is 1
        else:
            if len({j for j, _, _ in fac}) != len(fac):
                raise ValueError("at most one trig factor per ladder component")
            if any(j > depth for j, _, _ in fac):
                raise ValueError("trig factor index exceeds depth")
            on = {j: complex(w, phase == SIN) for j, w, phase in fac}
            keys.append(a + [on.get(j, 0j) for j in range(depth + 1)])
            vecs.append(v)
    keys = np.array(keys, dtype=complex).reshape(-1, 2 * depth + 3)
    return _merge_rows(dim, keys, np.array(vecs, dtype=float).reshape(-1, dim))


def to_trig_ladder(p: LogPowerSum) -> list:
    """Real form of a conjugation-symmetric ladder-power sum, as rows.

    Output depth (len(alpha) - 2 of every row) is p.depth + 1 when some
    term oscillates in the deepest component (its imaginary exponent
    becomes a trig factor one level down), else exactly p.depth.

    Pair rule: of a conjugate pair, the member whose first nonzero
    imaginary exponent is negative emits both; a term with no nonzero
    imaginary exponent is its own pair and gives Re(xi).

    Rotation: with each oscillating component written as
    cos(b L) + i sin(b L), a pair is 2 Re(xi * prod (cos + i sin)), so the
    term with s sine factors has coefficient 2 Re(xi i^s); a sine of a
    negative frequency b turns its sign.  Raw rows run term by term, picks
    in itertools.product order over (cos, sin).
    """
    witness = asymmetry_witness(p)
    if witness is not None:
        raise ValueError(f"sum is not conjugation-symmetric at term {witness}; no real form exists")
    im = p.alphas.imag
    osc = im != 0.0
    count = osc.sum(axis=1)
    # a term without oscillation reads its first imaginary exponent as 0
    emits = np.flatnonzero(im[np.arange(p.term_count()), osc.argmax(axis=1)] <= 0.0)
    size = 1 << count[emits]
    t = np.repeat(emits, size)  # the term of each raw row
    pick = np.arange(t.size) - np.repeat(np.cumsum(size) - size, size)
    # a term's m-th oscillating component (m = 0 first) reads bit n-1-m of its pick
    sin = osc[t] & ((pick[:, None] >> (count[:, None] - np.cumsum(osc, axis=1))[t]) & 1 == 1)
    # Re(xi * c), c = weight * i^e: a sine multiplies c by i, or at b < 0 by -i = i^3
    e = (sin * np.where(im < 0.0, 3, 1)[t]).sum(axis=1) % 4
    vec = (p.xis[t] * _ROTATIONS[np.minimum(count[t], 1), e, None]).real
    # imaginary exponent on tuple index i (component i-1) becomes a trig
    # factor on component i; only the deepest one lifts the depth
    cut = p.depth + 1 + int(osc[:, -1].any())  # ladder components 0..cut-1
    lift = np.zeros((t.size, cut - p.depth - 1))  # a zero exponent on the new one
    keys = np.concatenate([p.alphas.real[t], lift, abs(im[t, :cut]) + 1j * sin[:, :cut]], axis=1)
    return _merge_rows(p.dim, keys, vec)


def to_trig_poly(s: ExpPolySum) -> list:
    """Real form of a conjugation-symmetric exponential sum, at depth 0.

    Each row reads e^(Re nu t) t^j cos/sin(Im nu t); decaying exponents
    are taken as they are.
    """
    return to_trig_ladder(ladder_view(s))


def from_trig_ladder(dim: int, depth: int, raw) -> LogPowerSum:
    """The LogPowerSum of raw real rows (alpha, factors, vec).

    The rows are canonicalized (and validated) as the real form is; each
    trig factor on component j then becomes a conjugate pair of imaginary
    powers z_{j-1}^(+-iw), so the result is conjugation-symmetric at the
    same depth.
    """
    out: list[tuple[list[complex], np.ndarray]] = []
    for (alpha, factors), vec in _real_rows(dim, depth, raw):
        base = [complex(a) for a in alpha]
        # (exponent shift, weight) pairs: cos = (e^{iwL} + e^{-iwL})/2 and
        # sin = (e^{iwL} - e^{-iwL})/(2i)
        choices = [
            ((1j * w, 0.5 + 0j), (-1j * w, 0.5 + 0j)) if phase == COS
            else ((1j * w, -0.5j), (-1j * w, 0.5j))
            for _, w, phase in factors
        ]
        for combo in itertools.product(*choices):
            a = list(base)
            coeff = 1.0 + 0j
            for (j, _, _), (shift, weight) in zip(factors, combo):
                a[j] += shift  # tuple index j = component j-1
                coeff *= weight
            out.append((a, coeff * vec.astype(complex)))
    return LogPowerSum.build(dim, depth, out)


def imag_residue(p, ts: Sequence[float]) -> float:
    """Largest |imaginary part| of p over a sample grid (realness check);
    ValueError when p is not finite somewhere on the grid."""
    values = p.eval(ts)
    if not np.isfinite(values).all():
        raise ValueError("imag_residue: the sum is not finite on the sample grid")
    return max([0.0] + abs(values.imag).max(axis=1).tolist())
