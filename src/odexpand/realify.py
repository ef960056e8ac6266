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

from .expsum import TRIM_REL, ExpPolySum, snap_float, snap_scalar
from .logpower import LogPowerSum, ladder_view

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


def asymmetry_witness(p):
    """First term breaking conjugation symmetry, or None if symmetric.

    The partner of a term is the one at the componentwise conjugate
    exponent vector; the witness is the offending term's exponent key.
    An ExpPolySum is checked through its depth-0 ladder view, so its
    witness is a (nu, j) key.
    """
    p = ladder_view(p)
    scale = max(p.sup_norm(), 1.0)
    for alpha, xi in p.items():
        key = tuple(snap_scalar(a.conjugate()) for a in alpha)
        partner = p.terms.get(key)
        if partner is None:
            return alpha
        if float(abs(partner - xi.conjugate()).max()) > SYMMETRY_TOL * scale:
            return alpha
    return None


# ---------------------------------------------------------------------------
# real forms: sorted rows ((alpha, factors), vec)


def _real_rows(dim: int, depth: int, raw) -> list:
    """Canonical real form of raw (alpha, factors, vec) rows: the sorted
    ((alpha, factors), vec) list.  alpha holds real exponents of components
    -1..depth and factors are (component j >= 0, frequency w, cos|sin).
    Values are snapped, negative frequencies flipped (sin soaks up the
    sign), equal keys merged and rows below TRIM_REL of the largest dropped.
    """
    if depth < -1:
        raise ValueError("depth must be >= -1")
    acc: dict[tuple, np.ndarray] = {}
    for alpha, factors, vec in raw:
        a = tuple(snap_float(x) for x in alpha)
        if len(a) != depth + 2:
            raise ValueError(
                f"exponent vector length {len(a)} != depth+2 = {depth + 2}"
            )
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
            if w < 0.0:
                w = -w
                if phase == SIN:
                    v = -v
            if w != 0.0:
                fac.append((int(j), w, phase))
            elif phase == SIN:
                break  # sin(0) kills the term; cos(0) is 1
        else:
            fac.sort()
            if len({j for j, _, _ in fac}) != len(fac):
                raise ValueError("at most one trig factor per ladder component")
            if any(j > depth for j, _, _ in fac):
                raise ValueError("trig factor index exceeds depth")
            key = (a, tuple(fac))
            acc[key] = acc.get(key, np.zeros(dim)) + v
    norms = {k: float(np.linalg.norm(v)) for k, v in acc.items()}
    top = max(norms.values(), default=0.0)
    return [(k, acc[k]) for k in sorted(acc) if norms[k] > 0.0 and norms[k] >= TRIM_REL * top]


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
    term with s sine factors has coefficient 2 Re(xi i^s).
    """
    witness = asymmetry_witness(p)
    if witness is not None:
        raise ValueError(
            f"sum is not conjugation-symmetric at term {witness}; no real form exists"
        )
    deepest = p.depth + 1  # tuple index of the deepest component
    needs_lift = bool((p.alphas[:, deepest].imag != 0.0).any())
    out_depth = p.depth + 1 if needs_lift else p.depth
    raw = []
    for alpha, xi in p.items():
        # imaginary exponent on tuple index i (component i-1) becomes a
        # trig factor on component i
        osc = [(i, a.imag) for i, a in enumerate(alpha) if a.imag != 0.0]
        if osc and osc[0][1] > 0.0:
            continue  # its partner emits the pair
        a_real = [a.real for a in alpha] + [0.0] * (out_depth - p.depth)
        weight = 2.0 if osc else 1.0  # a real term is its own pair
        for picks in itertools.product((COS, SIN), repeat=len(osc)):
            factors = [(i, b, ph) for (i, b), ph in zip(osc, picks)]
            raw.append((a_real, factors, weight * (xi * 1j ** picks.count(SIN)).real))
    return _real_rows(p.dim, out_depth, raw)


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
