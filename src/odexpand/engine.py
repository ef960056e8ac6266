"""Expansion engine.

Given y' = -A y + G(y) + f(t) with a dissipative A and forcing built from
finitely many decay rates, the engine realizes the semigroup of reachable
rates (the exponent ladder) and builds one term per rate, in increasing
order.  Every mode runs the same loop: the right-hand side at rate mu is the
interactions of earlier terms that land on mu, plus the forcing there, and
the term solves one linear problem at that rate.  The interactions are a sum
over multisets of earlier rates that add up to mu.  Power and log mode apply
each map's symmetrization to every multiset of its arity in one stacked call
per order, and canonicalize the whole right-hand side once; exponential mode
still applies the map once per distinct ordering of the multiset and adds
the pieces one by one.  Otherwise only the term type and the solve depend on
the mode:

    exponential mode: ExpPolySums, solved through the resolvent; the kernel
                      modes at a rate are those of the clusters of A's
                      spectrum on it (``ProblemSpec.clusters``);
    power mode:       LogPowerSums on the plain power scale, solved by the
                      shifted inverse, one stacked solve per order; the
                      right-hand side also carries minus the descent of the
                      term one unit below;
    log mode:         LogPowerSums on an iterated-log scale, solved as in
                      power mode; the descent terms decay faster than every
                      ladder rate and drop out entirely.

Construction is strictly order by order: a higher truncation reproduces
every lower order bit for bit.  ``expand`` is the only builder, and a built
expansion is never edited; the constants of its kernel modes are fitted
by the numerical check and added there as values.
"""

from __future__ import annotations

import heapq
import itertools
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .expsum import ExpPolySum, mul_apply_exp, snap_scalar
from .logpower import (
    LogPowerSum,
    ShiftedInverseCache,
    descent_op,
    ladder_view,
    mul_apply_logpower,
    shifted_inverse,
    trim_small_logpower,
    weight_op,
)
from .multilinear import MultiLinearMap
from .resolvent import (
    RESIDUAL_REL,
    SINGULAR_REL,
    homogeneous_modes,
    resolvent_defect,
    resolvent_solve_exp,
)

__all__ = [
    "ExponentLadder",
    "ProblemSpec",
    "Expansion",
    "ExpansionOrder",
    "ValidationError",
    "expand",
    "symbolic_defect",
    "eval_partial_sum",
]

# Two realized rates are identified when |a - b| < MATCH_REL * max(1, |a|).
MATCH_REL = 1e-10

MODES = ("exponential", "power", "log")


class ValidationError(ValueError):
    """Raised when a problem description violates a structural assumption."""


def _match_tol(mu: float) -> float:
    return MATCH_REL * max(1.0, abs(mu))


class ExponentLadder:
    """Closure of positive base rates under addition.

    The closure contains all finite sums of base elements; ``unit_increment``
    (power mode) additionally closes under +1.  Values are produced in
    increasing order and deduplicated under a relative tolerance.
    """

    def __init__(self, base, unit_increment: bool):
        vals = sorted(float(b) for b in base)
        if not vals:
            raise ValidationError("ladder base must be nonempty")
        if vals[0] <= 0.0:
            raise ValidationError("ladder base rates must be positive")
        dedup: list[float] = []
        for v in vals:
            if not dedup or v - dedup[-1] >= _match_tol(v):
                dedup.append(v)
        self.base = tuple(dedup)
        self.unit_increment = bool(unit_increment)

    def take(self, count: int) -> tuple[float, ...]:
        """The first ``count`` rates in increasing order.

        ValidationError when a step from a realized rate lands within the
        match tolerance of it: the step's sum could not be told apart from
        the rate, so its terms would be merged into the rate's.  Every
        realized rate thus leaves a candidate the duplicate skip keeps, and
        the candidates never run out.
        """
        if count < 0:
            raise ValueError("count must be >= 0")
        steps = self.base + ((1.0,) if self.unit_increment else ())
        heap = list(self.base)
        heapq.heapify(heap)
        realized: list[float] = []
        while len(realized) < count:
            x = heapq.heappop(heap)
            if realized and x - realized[-1] < _match_tol(x):
                continue
            realized.append(x)
            for b in steps:
                if (x + b) - x < _match_tol(x + b):
                    raise ValidationError(
                        f"ladder step {b!r} from rate {x!r} lands within the rate "
                        "match tolerance; the two rates cannot be told apart"
                    )
                heapq.heappush(heap, x + b)
        return tuple(realized)


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ProblemSpec:
    """Problem description: y' = -matrix*y + sum_m maps_m(y,..,y) + forcing(t).

    forcing maps decay rates to symbolic terms: ExpPolySums whose exponents
    all have real part -mu (exponential mode), or LogPowerSums in the
    (scale_index, -mu) class (power mode: scale_index 0; log mode: >= 1).
    The exponent ladder comes from the problem alone: its base is the
    forcing rates, plus the rates of the matrix's eigenvalue clusters in
    exponential mode, and power mode also closes it under +1.
    """

    matrix: np.ndarray
    maps: tuple[MultiLinearMap, ...]
    forcing: tuple[tuple[float, object], ...]
    mode: str
    order: int
    scale_index: int = 0

    def __post_init__(self):
        object.__setattr__(self, "matrix", np.asarray(self.matrix, dtype=complex))
        object.__setattr__(self, "maps", tuple(self.maps))
        object.__setattr__(
            self, "forcing", tuple((float(mu), term) for mu, term in self.forcing)
        )

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]

    @cached_property
    def eigenvalues(self) -> np.ndarray:
        """The matrix's eigenvalues, computed once per problem; read-only."""
        eigs = np.linalg.eigvals(self.matrix)
        eigs.setflags(write=False)
        return eigs

    @cached_property
    def clusters(self) -> tuple[tuple[complex, tuple[ExpPolySum, ...]], ...]:
        """The spectrum as (nu, kernel modes) pairs, nu = -eigenvalue.

        The one rule for every spectral decision of exponential mode: the
        ladder's eigen-rates are -Re nu and an order's kernel modes are those
        of the clusters on its rate, ``homogeneous_modes(A, nu)`` computed
        once.  Eigenvalues within sqrt(SINGULAR_REL) * max(norm(A), 1) of
        the smallest remaining one, in (Re, Im) order, merge at their mean:
        the computed copies of a defective eigenvalue of index k scatter by
        about eps^(1/k).  nu is the snapped minus mean, and the merge stands
        only when nu has one mode per merged eigenvalue; otherwise the
        smallest eigenvalue stays alone.  Canonical (Re nu, Im nu) order.
        """
        radius = math.sqrt(SINGULAR_REL) * max(float(np.linalg.norm(self.matrix, 2)), 1.0)
        rest = sorted(map(complex, self.eigenvalues), key=lambda z: (z.real, z.imag))
        out = []
        while rest:
            near = [i for i, lam in enumerate(rest) if abs(lam - rest[0]) <= radius]
            nu = snap_scalar(-sum(rest[i] for i in near) / len(near))
            modes = homogeneous_modes(self.matrix, nu)
            if len(near) > 1 and len(modes) != len(near):
                near, nu = [0], snap_scalar(-rest[0])
                modes = homogeneous_modes(self.matrix, nu)
            out.append((nu, tuple(modes)))
            rest = [lam for i, lam in enumerate(rest) if i not in near]
        return tuple(sorted(out, key=lambda c: (c[0].real, c[0].imag)))

    def slowest_rate(self) -> float:
        return float(min(self.eigenvalues.real))

    def validate(self) -> None:
        A = self.matrix
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValidationError("matrix must be square")
        n = A.shape[0]
        if self.mode not in MODES:
            raise ValidationError(f"mode must be one of {MODES}, got {self.mode!r}")
        eigs = self.eigenvalues
        if min(eigs.real) <= 1e-10:
            raise ValidationError(
                "dissipativity violated: every eigenvalue of the linear part "
                f"needs positive real part, got real parts {sorted(eigs.real)}"
            )
        for G in self.maps:
            if G.dim != n:
                raise ValidationError("nonlinearity dimension mismatch")
            if G.arity < 2:
                raise ValidationError("nonlinearity terms must have arity >= 2")
        if self.order < 1:
            raise ValidationError("truncation order must be >= 1")
        if self.mode == "power" and self.scale_index != 0:
            raise ValidationError("power mode fixes scale_index = 0")
        if self.mode == "log" and self.scale_index < 1:
            raise ValidationError("log mode needs scale_index >= 1")
        mus = [mu for mu, _ in self.forcing]
        if not mus:
            raise ValidationError("at least one forcing term is required")
        if min(mus) <= 0:
            raise ValidationError("forcing decay rates must be positive")
        for i, a in enumerate(mus):
            for b in mus[i + 1 :]:
                if abs(a - b) < _match_tol(a):
                    raise ValidationError(f"duplicate forcing rate {a}")
        exp_mode = self.mode == "exponential"
        for mu, term in self.forcing:
            if exp_mode and not isinstance(term, ExpPolySum):
                raise ValidationError("exponential mode takes ExpPolySum forcing")
            if not exp_mode and not isinstance(term, LogPowerSum):
                raise ValidationError("power/log modes take LogPowerSum forcing")
            if term.dim != n:
                raise ValidationError("forcing dimension mismatch")
            if not exp_mode and term.depth < self.scale_index:
                raise ValidationError(
                    f"forcing at rate {mu} has depth {term.depth}, "
                    f"below scale_index {self.scale_index}"
                )
            if not _in_rate_class(self, term, mu):
                where = (
                    f"has exponents off the -{mu} line"
                    if exp_mode
                    else f"is outside the ({self.scale_index}, -{mu}) class"
                )
                raise ValidationError(f"forcing at rate {mu} {where}")

    def make_ladder(self) -> ExponentLadder:
        """The exponent ladder: the closure of the forcing rates, and in
        exponential mode the rates -Re nu of the eigenvalue clusters, under
        addition (power mode: also under +1).  Near-equal rates are merged."""
        rates = {mu for mu, _ in self.forcing}
        if self.mode == "exponential":
            rates |= {-nu.real for nu, _ in self.clusters}
        return ExponentLadder(rates, unit_increment=(self.mode == "power"))


@dataclass(frozen=True)
class ExpansionOrder:
    """One constructed term: the rate, the symbolic term, and (exponential
    mode only) the kernel modes: ``homogeneous_modes`` of every eigenvalue
    cluster on the rate, in canonical (Re nu, Im nu) order, as many per
    cluster as its algebraic multiplicity.  The term leaves the kernel modes
    out: their constants depend on the particular solution, so a check fits
    them and adds them as values (``numerics.remainder_series``)."""

    mu: float
    term: object
    kernel: tuple[ExpPolySum, ...] = ()


@dataclass(frozen=True)
class Expansion:
    orders: tuple[ExpansionOrder, ...]
    spec: ProblemSpec = field(repr=False)

    @property
    def mode(self) -> str:
        return self.spec.mode

    @property
    def rates(self) -> tuple[float, ...]:
        return tuple(o.mu for o in self.orders)

    def order_count(self) -> int:
        return len(self.orders)


def _forcing_at(spec: ProblemSpec, mu: float):
    for fmu, term in spec.forcing:
        if abs(fmu - mu) < _match_tol(mu):
            return term
    return None


def _in_rate_class(spec: ProblemSpec, term, mu: float) -> bool:
    """Whether every exponent of term decays at exactly rate mu: its ladder
    view is in the (m, -mu) class, m = -1 in exponential mode (Re nu = -mu)
    and scale_index otherwise.  The zero term is in every class."""
    m = -1 if spec.mode == "exponential" else spec.scale_index
    return ladder_view(term).in_class(m, -mu)


def _ordered_tuples(parts: tuple[int, ...]):
    """Distinct orderings of a multiset, lexicographically."""
    return sorted(set(itertools.permutations(parts)))


def _interaction_sum(spec: ProblemSpec, mus, terms, k: int):
    """The nonlinear interactions that land on rate mus[k], as pieces.

    They run over the multisets of earlier orders whose rates sum to mus[k]
    and the maps of the multiset's arity.  Exponential mode applies each map
    to every distinct ordering of each multiset and returns one ExpPolySum
    per (ordering, map).  Power and log mode use that G is multilinear: the
    sum of G over the distinct orderings of a multiset is G.symmetrized on
    any one ordering, weighted by 1 / (product of the multiplicity
    factorials).  They make one ``mul_apply_logpower`` call per map over
    all the multisets of its arity and return its raw (alphas, xis) rows,
    for the one canonicalization of the order's right-hand side.
    """
    max_arity = max((G.arity for G in spec.maps), default=0)
    multisets = [
        parts
        for parts in _decompose_values(mus[:k], mus[k], max_arity)
        if not any(terms[i].is_zero() for i in parts)
    ]
    if spec.mode == "exponential":
        # Per ordering: exponential mode amplifies ulp-level reorderings
        # past the output tolerance (ROADMAP item 2).
        return [
            mul_apply_exp(G, [terms[i] for i in ordered])
            for parts in multisets
            for ordered in _ordered_tuples(parts)
            for G in spec.maps
            if G.arity == len(parts)
        ]
    pieces = []
    for G in spec.maps:
        group = [parts for parts in multisets if len(parts) == G.arity]
        if group:
            weights = [
                1.0 / math.prod(math.factorial(parts.count(i)) for i in set(parts))
                for parts in group
            ]
            pieces.append(mul_apply_logpower(G.symmetrized, terms, group, weights))
    return pieces


def _decompose_values(values, mu: float, max_arity: int):
    """Multisets of 2 to max_arity indices into the increasing realized
    prefix ``values`` whose rates add up to mu, as nondecreasing tuples."""
    if max_arity < 2:
        return ()
    tol = _match_tol(mu)
    vals = [v for v in values if v <= mu + tol]
    out: list[tuple[int, ...]] = []

    def rec(start: int, remaining: float, parts: list[int]):
        if len(parts) >= 2 and abs(remaining) <= tol:
            out.append(tuple(parts))
            return
        if len(parts) == max_arity or remaining <= tol:
            return
        for i in range(start, len(vals)):
            v = vals[i]
            if v > remaining + tol:
                break
            parts.append(i)
            rec(i, remaining - v, parts)
            parts.pop()

    rec(0, mu, [])
    return tuple(out)


def _chi_source(mus, k: int) -> int | None:
    """Index lambda < k with mu_lambda + 1 = mu_k, if any (power mode)."""
    hits = [
        i for i in range(k) if abs(mus[i] + 1.0 - mus[k]) < _match_tol(mus[k])
    ]
    if len(hits) > 1:
        raise RuntimeError("ladder monotonicity violated: ambiguous descent source")
    return hits[0] if hits else None


def _arity_cap_warning(spec: ProblemSpec, mus) -> None:
    """Warn once when the supplied nonlinearity degrees cap the interactions.

    The safe per-order arity bound is the smallest integer >= 2 mu_k / mu_1;
    if the highest supplied degree falls short of it anywhere, degrees
    beyond the supplied list are being assumed absent.
    """
    if not spec.maps:
        return
    max_arity = max(G.arity for G in spec.maps)
    mu1 = mus[0]
    binding = [mu for mu in mus if math.ceil(2.0 * mu / mu1 - 1e-12) > max_arity]
    if binding:
        need = math.ceil(2.0 * binding[0] / mu1 - 1e-12)
        warnings.warn(
            f"the remainder analysis at rate {binding[0]:g} assumes "
            f"nonlinearity degrees up to {need}; degrees above {max_arity} "
            "are taken to be absent from the system",
            RuntimeWarning,
            stacklevel=3,  # the caller of expand
        )


def _rate_rhs(spec: ProblemSpec, mus, terms, k: int):
    """Right-hand side of the linear problem for the term at rate mus[k].

    The interactions landing on the rate, then the forcing there, then (power
    mode) minus the descent of the term one unit below, at the deepest depth
    of the terms before k and the forcing.  Exponential mode adds them one
    by one onto the zero sum; power and log mode stack their raw rows and
    canonicalize once.
    """
    pieces = _interaction_sum(spec, mus, terms, k)
    f_k = _forcing_at(spec, mus[k])
    if spec.mode == "exponential":
        total = ExpPolySum.zero(spec.dim)
        for piece in pieces + ([] if f_k is None else [f_k]):
            total = total + piece
        return total
    depth = max([0] + [t.depth for t in terms[:k]])
    if f_k is not None:
        pieces.append((f_k.alphas, f_k.xis))
        depth = max(depth, f_k.depth)
    if spec.mode == "power":
        lam = _chi_source(mus, k)
        if lam is not None and not terms[lam].is_zero():
            descent = descent_op(terms[lam])
            # the raw rows of descent.scale(-1.0)
            pieces.append((descent.alphas, -1.0 * descent.xis))
    return LogPowerSum.from_pieces(spec.dim, depth, pieces)


def _solve_rate(spec: ProblemSpec, mu: float, rhs, cache):
    """The term at rate mu and its kernel modes: the one mode-dependent step.

    Exponential mode solves z' + A z = rhs through the resolvent; the kernel
    modes are those of the eigenvalue clusters whose rate matches mu under
    the ladder's rule, whatever the right-hand side.  Power/log modes apply
    the shifted inverse of A + weight_op(-1) and have no kernel.
    """
    if spec.mode != "exponential":
        return (rhs if rhs.is_zero() else shifted_inverse(rhs, cache)), ()
    term = rhs if rhs.is_zero() else resolvent_solve_exp(spec.matrix, rhs)[0]
    on_rate = [modes for nu, modes in spec.clusters if abs(nu.real + mu) < _match_tol(mu)]
    return term, tuple(m for modes in on_rate for m in modes)


def expand(spec: ProblemSpec) -> Expansion:
    """Construct the expansion up to the truncation spec.order."""
    spec.validate()
    mus = spec.make_ladder().take(spec.order)
    _arity_cap_warning(spec, mus)
    orders, terms = [], []
    cache = ShiftedInverseCache(spec.matrix) if spec.mode != "exponential" else None
    for k in range(spec.order):
        rhs = _rate_rhs(spec, mus, terms, k)
        term, kernel = _solve_rate(spec, mus[k], rhs, cache)
        if not _in_rate_class(spec, term, mus[k]):
            raise RuntimeError(f"constructed term escaped the class of rate {mus[k]}")
        orders.append(ExpansionOrder(mu=mus[k], term=term, kernel=kernel))
        terms.append(term)
    return Expansion(orders=tuple(orders), spec=spec)


def symbolic_defect(expansion: Expansion, k: int) -> LogPowerSum:
    """Defect of the k-th constructed term (1-based).

    Exponential mode: y_k' + A y_k - rhs_k on the ladder views; power/log
    modes: (A + weight_op(-1)) q_k - rhs_k.  Zero (canonically) by construction;
    rounding dust below the solver's residual guarantee is trimmed against
    the scale of the data so the zero element really is zero.
    """
    spec = expansion.spec
    mus = list(expansion.rates)
    terms = [o.term for o in expansion.orders]
    i = k - 1
    if not 0 <= i < len(terms):
        raise IndexError("order out of range")
    q = terms[i]
    rhs = _rate_rhs(spec, mus, terms, i)
    if spec.mode == "exponential":
        return resolvent_defect(spec.matrix, rhs, q)
    raw = q.apply_matrix(spec.matrix) + weight_op(-1, q) - rhs
    return trim_small_logpower(raw, RESIDUAL_REL * max(q.sup_norm(), rhs.sup_norm()))


def _partial_sums(expansion: Expansion, upto: int, t):
    """S_0 = 0, ..., S_upto at t, S_N = S_(N-1) + u_N (a zero u_N skipped)."""
    zero = np.zeros(np.shape(t) + (expansion.spec.dim,), dtype=complex)
    def add(s, o):
        return s if o.term.is_zero() else s + o.term.eval(t)
    return itertools.accumulate(expansion.orders[:upto], add, initial=zero)


def eval_partial_sum(expansion: Expansion, upto: int, t) -> np.ndarray:
    """Value of the first ``upto`` terms at time t, or at each time of a 1-D array."""
    return list(_partial_sums(expansion, upto, t))[-1]
