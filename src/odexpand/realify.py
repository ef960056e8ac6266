"""Real forms of conjugation-symmetric expansions.

A complex sum whose term map is closed under conjugation (exponents
conjugated, coefficients conjugated) is real-valued; these converters
rewrite such sums over a real basis.

For ladder-power sums an imaginary exponent on component j folds into a
cosine/sine of the next ladder component:

    L_j^(i w) xi + L_j^(-i w) conj(xi)
        = 2 cos(w L_{j+1}) Re(xi) - 2 sin(w L_{j+1}) Im(xi)

so the real form may need depth k+1; it stays at depth k exactly when no
term oscillates in the deepest component.

An exponential sum is the depth-0 ladder sum
p(t) e^(nu t) = sum_j exp(t)^nu t^j p_j with exponent vectors (nu, j), so
it goes through the same converter: Im nu becomes a cos/sin factor on t,
and the decay e^(Re nu t) stays a real power of exp(t).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .expsum import TRIM_REL, ExpPolySum, snap_float, snap_scalar
from .ladder import exp_zero, ladder_eval
from .logpower import LogPowerSum

__all__ = [
    "TrigLadderSum",
    "asymmetry_witness",
    "to_trig_poly",
    "to_trig_ladder",
    "from_trig_ladder",
    "imag_residue",
]

COS, SIN = "cos", "sin"


def _ladder_view(s: ExpPolySum) -> LogPowerSum:
    """s as a depth-0 ladder sum: one term per nonzero row, alpha = (nu, j).

    The rows are taken term by term, j ascending within a term.
    """
    k, j = np.nonzero((s.rows != 0).any(axis=2))
    alphas = np.stack([s.nus[k], j.astype(complex)], axis=1)
    return LogPowerSum.from_arrays(s.dim, 0, alphas, s.rows[k, j])


def asymmetry_witness(p, tol: float = 1e-12):
    """First term breaking conjugation symmetry, or None if symmetric.

    The partner of a term is the one at the componentwise conjugate
    exponent vector; the witness is the offending term's exponent key.
    An ExpPolySum is checked through its depth-0 ladder view, so its
    witness is a (nu, j) key.
    """
    if isinstance(p, ExpPolySum):
        p = _ladder_view(p)
    if not isinstance(p, LogPowerSum):
        raise TypeError(f"unsupported operand type {type(p).__name__}")
    scale = max(p.sup_norm(), 1.0)
    for alpha, xi in p.items():
        key = tuple(snap_scalar(a.conjugate()) for a in alpha)
        partner = p.terms.get(key)
        if partner is None:
            return alpha
        if float(abs(partner - xi.conjugate()).max()) > tol * scale:
            return alpha
    return None


# ---------------------------------------------------------------------------
# real ladder-power sums with trig factors


def _snap_alpha_real(alpha: Sequence[float]) -> tuple[float, ...]:
    return tuple(snap_float(a) for a in alpha)


def _canon_factors(factors, vec):
    """Normalize factor frequencies to be positive; sin soaks up the sign."""
    out = []
    for j, omega, phase in factors:
        if phase not in (COS, SIN):
            raise ValueError(f"phase must be cos or sin, got {phase!r}")
        if j < 0:
            raise ValueError("trig factor index must be >= 0")
        w = snap_float(omega)
        if w < 0.0:
            w = -w
            if phase == SIN:
                vec = -vec
        if w == 0.0:
            if phase == SIN:
                return None, None  # sin(0) kills the term
            continue  # cos(0) is 1
        out.append((int(j), w, phase))
    out.sort()
    seen = [j for j, _, _ in out]
    if len(seen) != len(set(seen)):
        raise ValueError("at most one trig factor per ladder component")
    return tuple(out), vec


@dataclass(frozen=True)
class TrigLadderSum:
    """Real sums of (ladder powers) * (product of cos/sin of ladder components).

    Term key: (real exponent vector over components -1..depth, factor tuple
    of (component index j >= 0, frequency w > 0, cos|sin)).
    """

    dim: int
    depth: int
    terms: dict[tuple, np.ndarray] = field(default_factory=dict)

    @classmethod
    def build(cls, dim: int, depth: int, raw) -> "TrigLadderSum":
        if depth < -1:
            raise ValueError("depth must be >= -1")
        acc: dict[tuple, np.ndarray] = {}
        for alpha, factors, vec in raw:
            a = _snap_alpha_real(alpha)
            if len(a) != depth + 2:
                raise ValueError(
                    f"exponent vector length {len(a)} != depth+2 = {depth + 2}"
                )
            v = np.asarray(vec, dtype=float).reshape(-1)
            if v.shape[0] != dim:
                raise ValueError("coefficient length mismatch")
            fac, v = _canon_factors(factors, v)
            if fac is None:
                continue
            if any(j > depth for j, _, _ in fac):
                raise ValueError("trig factor index exceeds depth")
            key = (a, fac)
            acc[key] = acc.get(key, np.zeros(dim)) + v
        norms = {k: float(np.linalg.norm(v)) for k, v in acc.items()}
        top = max(norms.values(), default=0.0)
        out = {
            k: acc[k]
            for k in sorted(acc)
            if norms[k] > 0.0 and norms[k] >= TRIM_REL * top
        }
        return cls(dim=dim, depth=depth, terms=out)

    def items(self):
        return [(k, self.terms[k]) for k in sorted(self.terms)]

    def is_zero(self) -> bool:
        return not self.terms

    def eval(self, t: float) -> np.ndarray:
        t = float(t)
        gate = exp_zero(self.depth + 1)
        if not t > gate:
            raise ValueError(
                f"t = {t!r} below the depth-{self.depth} evaluation threshold {gate!r}"
            )
        # logs[j] = iter_log(j, t): component j's value and component j-1's log
        logs = ladder_eval(self.depth, t).tolist()
        out = np.zeros(self.dim)
        for (alpha, factors), vec in self.terms.items():
            w = alpha[0] * t
            for j in range(0, self.depth + 1):
                w += alpha[j + 1] * logs[j + 1]
            val = math.exp(w)
            for j, omega, phase in factors:
                x = omega * logs[j]
                val *= math.cos(x) if phase == COS else math.sin(x)
            out = out + val * vec
        return out


def to_trig_ladder(p: LogPowerSum, tol: float = 1e-12) -> TrigLadderSum:
    """Real form of a conjugation-symmetric ladder-power sum.

    Output depth is p.depth + 1 when some term oscillates in the deepest
    component (its imaginary exponent becomes a trig factor one level
    down), else exactly p.depth.

    Pair rule: of a conjugate pair, the member whose first nonzero
    imaginary exponent is negative emits both; a term with no nonzero
    imaginary exponent is its own pair and gives Re(xi).

    Rotation: with each oscillating component written as
    cos(b L) + i sin(b L), a pair is 2 Re(xi * prod (cos + i sin)), so the
    term with s sine factors has coefficient 2 Re(xi i^s).
    """
    witness = asymmetry_witness(p, tol)
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
    return TrigLadderSum.build(p.dim, out_depth, raw)


def to_trig_poly(s: ExpPolySum, tol: float = 1e-12) -> TrigLadderSum:
    """Real form of a conjugation-symmetric exponential sum, at depth 0.

    Each term reads e^(Re nu t) t^j cos/sin(Im nu t); decaying exponents
    are taken as they are.
    """
    return to_trig_ladder(_ladder_view(s), tol)


def from_trig_ladder(q: TrigLadderSum) -> LogPowerSum:
    """Rewrite trig factors as conjugate pairs of imaginary ladder powers.

    cos(w L_j) = (z_{j-1}^{iw} + z_{j-1}^{-iw})/2 and likewise for sin; the
    result is conjugation-symmetric at the same depth.
    """
    raw: list[tuple[list[complex], np.ndarray]] = []
    for (alpha, factors), vec in q.terms.items():
        base = [complex(a) for a in alpha]
        choices = []
        for j, omega, phase in factors:
            if phase == COS:
                choices.append(((1j * omega, 0.5 + 0j), (-1j * omega, 0.5 + 0j)))
            else:
                choices.append(((1j * omega, -0.5j), (-1j * omega, 0.5j)))
        for combo in itertools.product(*choices):
            a = list(base)
            coeff = 1.0 + 0j
            for (j, _, _), (shift, weight) in zip(factors, combo):
                a[j] += shift  # tuple index j = component j-1
                coeff *= weight
            raw.append((a, coeff * vec.astype(complex)))
    return LogPowerSum.build(q.dim, q.depth, raw)


def imag_residue(p, ts: Sequence[float]) -> float:
    """Largest |imaginary part| of p over a sample grid (realness check);
    ValueError when p is not finite somewhere on the grid."""
    values = p.eval(ts)
    if not np.isfinite(values).all():
        raise ValueError("imag_residue: the sum is not finite on the sample grid")
    return max([0.0] + abs(values.imag).max(axis=1).tolist())
