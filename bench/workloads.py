"""Seeded problem families and the ops the benchmark runs on them.

Each workload owns a fixed pool of POOL_SIZE generated problems.  Problem
``i`` of a workload is built from its own generator, seeded by the workload
and ``i`` alone, so the pool never changes and ``reference/`` can hold the
outputs the seed commit produced for every problem in it.  The run seed
only decides which problems a run uses and in what order.

Inside a family only the values are random: the matrix shape, the sparsity
pattern of G, the forcing's exponent structure and the expansion order are
fixed, so every problem costs about the same and runs with different seeds
stay comparable.

Every float is rounded to 6 decimals before it is written, and configs are
serialized with sorted keys, so the same seed gives byte-identical configs
and CLI arguments.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

POOL_SIZE = 32
FAMILY_SEED = 2108_03724

# Sparsity pattern of G shared by the two dim-3 families:
# (output row, input indices), values drawn per problem.
QUADRATIC_SLOTS = (
    (0, (0, 1)), (0, (2, 2)), (1, (0, 0)), (1, (1, 2)), (2, (0, 2)), (2, (1, 1)),
)
CUBIC_SLOTS = (
    (0, (1, 1, 2)), (0, (0, 0, 0)), (1, (0, 1, 2)), (1, (2, 2, 2)),
    (2, (0, 0, 1)), (2, (1, 2, 2)),
)


@dataclass(frozen=True)
class Op:
    """One CLI subcommand run on one generated config."""

    command: str
    argv: tuple[str, ...] = ()


@dataclass(frozen=True)
class Problem:
    workload: str
    index: int
    config: dict
    ops: tuple[Op, ...]

    @property
    def name(self) -> str:
        return f"{self.workload}-{self.index:03d}"

    def config_text(self) -> str:
        return json.dumps(self.config, indent=1, sort_keys=True) + "\n"


def _r(x) -> float:
    return round(float(x), 6)


def _g_records(rng) -> list[dict]:
    def entries(slots):
        return [[out, *ins, _r(rng.uniform(-1.0, 1.0))] for out, ins in slots]

    return [
        {"arity": 2, "entries": entries(QUADRATIC_SLOTS)},
        {"arity": 3, "entries": entries(CUBIC_SLOTS)},
    ]


def _power_expand(rng) -> tuple[dict, tuple[Op, ...]]:
    # Why: the interaction sum and canonicalization (mul_apply_logpower,
    # LogPowerSum.build, G calls) do almost all the work, over many small
    # distinct exponent keys; the integrator does none.
    lam = rng.uniform(0.8, 2.5)
    re, im = rng.uniform(0.8, 2.5), rng.uniform(0.2, 1.0)
    D = np.array([[lam, 0.0, 0.0], [0.0, re, im], [0.0, -im, re]])
    S = np.eye(3) + 0.3 * rng.uniform(-1.0, 1.0, (3, 3))
    A = S @ D @ np.linalg.inv(S)
    v, w = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
    omega = _r(rng.uniform(0.5, 2.0))
    # t^-1 (v + w cos(omega t)) as a plain t^-1 term plus the e^{+-i omega t} pair.
    terms = [{"alpha": [0.0, -1.0], "vector": [_r(x) for x in v]}]
    for sign in (1.0, -1.0):
        terms.append(
            {"alpha": [[0.0, sign * omega], -1.0], "vector": [_r(x / 2.0) for x in w]}
        )
    config = {
        "problem": {
            "matrix": [[_r(x) for x in row] for row in A],
            "nonlinearity": _g_records(rng),
            "forcing": [{"rate": 1.0, "type": "log_power", "depth": 0, "terms": terms}],
            "mode": "power",
        },
        "expansion": {"order": 10},
    }
    return config, (Op("expand"), Op("realify"))


def _exp_resonant(rng) -> tuple[dict, tuple[Op, ...]]:
    # Why: the polynomial convolution in mul_apply_exp makes most of the
    # G calls, some resolvent solves are resonant (rate 2 hits eigenvalue 2),
    # certificate runs the expm envelope and G probes, integration is short.
    # Exponential realify exits 3 at the seed commit; it stays in the ops.
    perm = rng.permutation(3)
    P = np.eye(3)[perm]
    T = np.diag([2.0, 3.0, 4.0]) + np.triu(rng.uniform(-1.0, 1.0, (3, 3)), 1)
    # A permuted triangular matrix keeps the spectrum {2, 3, 4} exact.
    A = P @ np.round(T, 6) @ P.T
    a, b = rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)
    w = rng.uniform(-1.0, 1.0, 3)
    omega = _r(rng.uniform(0.5, 2.0))
    terms = [{"exponent": -1.0, "rows": [[_r(x) for x in a], [_r(x) for x in b]]}]
    for sign in (1.0, -1.0):
        terms.append(
            {"exponent": [-1.0, sign * omega], "rows": [[_r(x / 2.0) for x in w]]}
        )
    y0 = 0.01 * rng.uniform(-1.0, 1.0, 3)
    config = {
        "problem": {
            "matrix": [[_r(x) for x in row] for row in A],
            "nonlinearity": _g_records(rng),
            "forcing": [{"rate": 1.0, "type": "exp_poly", "terms": terms}],
            "mode": "exponential",
        },
        "expansion": {"order": 7},
        "verification": {
            "y0": [_r(x) for x in y0],
            "t_span": [0.0, 14.0],
            "rel_tol": 1e-11,
            "abs_tol": 1e-13,
            "fit_window": [3.5, 8.5],
            "grid": {"kind": "linear", "count": 160},
            "fit_resonant": {"order": 2, "window": [10.0, 14.0]},
        },
        "certificate": {"probe_radius": 1.0, "samples": 1024},
    }
    ops = (Op("expand"), Op("verify", ("--order", "2")), Op("certificate"), Op("realify"))
    return config, ops


VERIFY_LONG_SPAN = 600.0


def _verify_long(rng) -> tuple[dict, tuple[Op, ...]]:
    # Why: the explicit integrator's step is pinned near 1/a, so rk45 steps
    # and the right-hand side (forcing eval, one G call) take nearly all of
    # the time; the symbolic layers do almost nothing.
    a = _r(rng.uniform(0.95, 1.05))
    b = _r(rng.uniform(0.8, 1.2))
    c = _r(rng.uniform(0.8, 1.2))
    y0 = _r(rng.uniform(0.08, 0.12))
    # The span scales with 1/a so the step count, pinned near a * span, does
    # not depend on the draw.
    t_end = round(10.0 + VERIFY_LONG_SPAN / a, 1)
    config = {
        "problem": {
            "matrix": [[a]],
            "nonlinearity": [{"arity": 2, "entries": [[0, 0, 0, b]]}],
            "forcing": [
                {
                    "rate": 1.0,
                    "type": "log_power",
                    "depth": 0,
                    "terms": [{"alpha": [0.0, -1.0], "vector": [c]}],
                }
            ],
            "mode": "power",
        },
        "expansion": {"order": 2},
        "verification": {
            "y0": [y0],
            "t_span": [10.0, t_end],
            "rel_tol": 1e-11,
            "abs_tol": 1e-15,
            "margin": 0.1,
        },
    }
    return config, (Op("verify"),)


GENERATORS = {
    "power-expand": _power_expand,
    "exp-resonant": _exp_resonant,
    "verify-long": _verify_long,
}

# Problems per pass.  Problems of one family do the same work to within 1%
# (counted G calls and terms; rk45 evaluations within 5%), so a few per
# pass lose little and leave time for more passes, which give each op's
# median time more repeats.
PASS_SIZE = {"power-expand": 3, "exp-resonant": 3, "verify-long": 2}

WORKLOADS = tuple(GENERATORS)


def problem(workload: str, index: int) -> Problem:
    """Problem ``index`` of a workload's fixed pool."""
    if not 0 <= index < POOL_SIZE:
        raise ValueError(f"problem index {index} outside the pool of {POOL_SIZE}")
    wid = WORKLOADS.index(workload)
    rng = np.random.default_rng([FAMILY_SEED, wid, index])
    config, ops = GENERATORS[workload](rng)
    return Problem(workload, index, config, ops)


def run_problems(workload: str, seed: int) -> list[Problem]:
    """The problems a run with this seed uses, in the order it runs them."""
    if workload not in GENERATORS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng(seed)
    picks = rng.choice(POOL_SIZE, size=PASS_SIZE[workload], replace=False)
    return [problem(workload, int(i)) for i in picks]
