"""Configuration-driven command line front end.

Subcommands and the files they write: expand (build terms; expansion.json,
compact, read it with python -m json.tool), verify (integrate and fit
remainder decay; verify.txt, remainders.csv), realify (real-form tables;
real_terms.txt), certificate (small-data decay constants; certificate.csv).
Configs are JSON; complex numbers are written as [re, im]; unknown fields are
rejected with their path.  The sections and their keys:

    problem       matrix, mode, forcing (required); nonlinearity,
                  scale_index (0).  Each forcing record has rate, type
                  (exp_poly, log_power or real_trig_ladder), terms, and
                  depth for the last two.
    expansion     order (4).  The exponent ladder is derived from the
                  problem; see ProblemSpec.
    verification  y0, t_span (required by verify); rel_tol (1e-10),
                  abs_tol (1e-12), margin (0.1), fit_window (the trailing
                  40% of t_span), grid {kind (linear in exponential mode,
                  else geometric), count (200)}, fit_resonant {order,
                  window (t_span)}.
    certificate   probe_radius (required by certificate), samples (1024).
    output        dir (".", overridden by --out).

Defaults are in parentheses; this parser is their one owner, as the library
takes every setting of a run explicitly.  Flow: load the config, build the
problem once, run the subcommand on it; verify's verdicts come from one
library call, ``verify`` (a ``VerifyResult``).
Exit codes: 0 pass, 1 verification fail, 2 validation error, 3 runtime error.
The parser bounds the values a config holds, not what the engine forms
from them: a coefficient whose norm overflows during expand (a huge
exponent times a coefficient, say) is a runtime error, exit 3.  It exits
so under any warning filter, since the canonicalizers take their norms
with numpy's overflow warning off.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from itertools import zip_longest
from pathlib import Path

import numpy as np

from .engine import Expansion, ProblemSpec, ValidationError, expand
from .expsum import EXPONENT_GRID, ExpPolySum, snap_float
from .logpower import LogPowerSum, ladder_view, row_norms
from .multilinear import MultiLinearMap
from .numerics import (
    SparseFitWindow,
    VerifyResult,
    decay_fit_window,
    fit_decay,
    fit_kernel_constants,
    integrate,
    remainder_series,
    smallness_certificate,
)
from .realify import (
    asymmetry_witness,
    from_trig_ladder,
    imag_residue,
    to_trig_ladder,
    to_trig_poly,
)

__all__ = ["main", "load_config", "build_problem", "verify"]


class ConfigError(ValueError):
    """Malformed configuration; message carries the offending path."""


# ---------------------------------------------------------------------------
# Config parsing.  Every dict is checked against its known keys so typos
# surface as errors with a JSON path instead of being ignored.


def _check_keys(obj: dict, allowed, path: str) -> None:
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: expected an object")
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{path}.{key}: unknown field")


def _is_number(value) -> bool:
    """A finite JSON number.  bool is an int subclass, but true and false are
    not numbers; json also reads NaN, Infinity and integers beyond a float."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and abs(value) <= sys.float_info.max
    )


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _complex(value, path: str) -> complex:
    if _is_number(value):
        return complex(value)
    if isinstance(value, list) and len(value) == 2 and all(map(_is_number, value)):
        return complex(float(value[0]), float(value[1]))
    raise ConfigError(f"{path}: expected a number or [re, im] pair")


def _real(value, path: str) -> float:
    if _is_number(value):
        return float(value)
    raise ConfigError(f"{path}: expected a real number")


def _int(value, path: str, lo: int, hi: int | None = None) -> int:
    if _is_int(value):
        if lo <= value and (hi is None or value <= hi):
            return value
    bound = f">= {lo}" if hi is None else f"in [{lo}, {hi}]"
    raise ConfigError(f"{path}: expected an integer {bound}")


def _exponent(value, path: str):
    """value, a parsed exponent (real or complex), when each of its parts
    divided by EXPONENT_GRID is finite, so that it can be snapped."""
    z = complex(value)
    if math.isfinite(z.real / EXPONENT_GRID) and math.isfinite(z.imag / EXPONENT_GRID):
        return value
    raise ConfigError(f"{path}: too large to snap onto the exponent grid of step {EXPONENT_GRID:g}")


def _span(value, path: str) -> tuple[float, float]:
    if isinstance(value, list) and len(value) == 2:
        lo, hi = (_real(v, f"{path}[{i}]") for i, v in enumerate(value))
        if lo < hi:
            return lo, hi
    raise ConfigError(f"{path}: expected [lo, hi] with lo < hi")


def _list(value, path: str, length: int | None = None) -> list:
    if isinstance(value, list) and (length is None or len(value) == length):
        return value
    size = "" if length is None else f" of {length} entries"
    raise ConfigError(f"{path}: expected a list{size}")


def _rows(value, path: str, width: int | None = None) -> list[list[complex]]:
    """A nonempty list of rows of complex numbers, each ``width`` long (the
    first row's length when None)."""
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of rows")
    rows = []
    for i, row in enumerate(value):
        row = _list(row, f"{path}[{i}]", width)
        width = len(row)
        rows.append([_complex(x, f"{path}[{i}][{j}]") for j, x in enumerate(row)])
    return rows


def _nonlinearity(value, dim: int, path: str):
    maps = []
    if value is None:
        return ()
    if not isinstance(value, list):
        raise ConfigError(f"{path}: expected a list")
    for i, rec in enumerate(value):
        p = f"{path}[{i}]"
        _check_keys(rec, {"arity", "entries"}, p)
        if "arity" not in rec or "entries" not in rec:
            raise ConfigError(f"{p}: needs 'arity' and 'entries'")
        arity = rec["arity"]
        if not _is_int(arity) or arity < 2:
            raise ConfigError(f"{p}.arity: expected an integer >= 2")
        entries = []
        for j, ent in enumerate(_list(rec["entries"], f"{p}.entries")):
            ep = f"{p}.entries[{j}]"
            if not isinstance(ent, list) or len(ent) != arity + 2:
                raise ConfigError(
                    f"{ep}: expected [out_index, {arity} input indices, value]"
                )
            idx = ent[: arity + 1]
            if not all(map(_is_int, idx)):
                raise ConfigError(f"{ep}: indices must be integers")
            if not all(0 <= x < dim for x in idx):
                raise ConfigError(f"{ep}: indices must lie in [0, {dim})")
            entries.append((idx[0], tuple(idx[1:]), _complex(ent[-1], ep)))
        maps.append(MultiLinearMap(arity=arity, dim=dim, entries=tuple(entries)))
    return tuple(maps)


def _forcing_record(rec, dim: int, path: str):
    _check_keys(rec, {"rate", "type", "depth", "terms"}, path)
    for field in ("rate", "type", "terms"):
        if field not in rec:
            raise ConfigError(f"{path}: needs '{field}'")
    rate = _real(rec["rate"], f"{path}.rate")
    kind = rec["type"]
    terms = _list(rec["terms"], f"{path}.terms")
    if kind == "exp_poly":
        raw = []
        for i, term in enumerate(terms):
            p = f"{path}.terms[{i}]"
            _check_keys(term, {"exponent", "rows"}, p)
            nu = _exponent(_complex(term.get("exponent"), f"{p}.exponent"), f"{p}.exponent")
            raw.append((nu, _rows(term.get("rows"), f"{p}.rows", dim)))
        return rate, ExpPolySum.build(dim, raw)
    if kind not in ("log_power", "real_trig_ladder"):
        raise ConfigError(
            f"{path}.type: expected 'exp_poly', 'log_power', or 'real_trig_ladder'"
        )
    depth = _int(rec.get("depth"), f"{path}.depth", 0)
    number = _complex if kind == "log_power" else _real

    def numbers(term, name: str, p: str, length: int) -> list:
        values = _list(term.get(name), f"{p}.{name}", length)
        return [number(x, f"{p}.{name}[{j}]") for j, x in enumerate(values)]

    def exponents(term, p: str) -> list:
        alpha = numbers(term, "alpha", p, depth + 2)
        return [_exponent(a, f"{p}.alpha[{j}]") for j, a in enumerate(alpha)]

    raw = []
    for i, term in enumerate(terms):
        p = f"{path}.terms[{i}]"
        if kind == "log_power":
            _check_keys(term, {"alpha", "vector"}, p)
            alpha = exponents(term, p)
            raw.append((alpha, np.array(numbers(term, "vector", p, dim), dtype=complex)))
            continue
        _check_keys(term, {"alpha", "factors", "vector"}, p)
        alpha = tuple(exponents(term, p))
        factors = []
        # ladder components that already carry a factor; from_trig_ladder
        # drops factors whose frequency snaps to 0 before it checks the same
        taken = set()
        for j, fac in enumerate(_list(term.get("factors", []), f"{p}.factors")):
            fp = f"{p}.factors[{j}]"
            _check_keys(fac, {"index", "omega", "phase"}, fp)
            if fac.get("phase") not in ("cos", "sin"):
                raise ConfigError(f"{fp}.phase: expected 'cos' or 'sin'")
            index = _int(fac.get("index"), f"{fp}.index", 0, depth)
            omega = _exponent(_real(fac.get("omega"), f"{fp}.omega"), f"{fp}.omega")
            if snap_float(omega) != 0.0:
                if index in taken:
                    raise ConfigError(
                        f"{fp}.index: ladder component {index} already has a trig factor"
                    )
                taken.add(index)
            factors.append((index, omega, fac["phase"]))
        raw.append((alpha, tuple(factors), np.array(numbers(term, "vector", p, dim))))
    if kind == "log_power":
        return rate, LogPowerSum.build(dim, depth, raw)
    return rate, from_trig_ladder(dim, depth, raw)


# The known keys of each config section, by section path; parents come
# before their subsections, which are checked in this order.
_SECTION_KEYS = {
    "problem": {"matrix", "nonlinearity", "forcing", "mode", "scale_index"},
    "expansion": {"order"},
    "verification": {
        "y0", "t_span", "rel_tol", "abs_tol", "margin", "fit_window", "grid", "fit_resonant"
    },
    "verification.grid": {"kind", "count"},
    "verification.fit_resonant": {"order", "window"},
    "certificate": {"probe_radius", "samples"},
    "output": {"dir"},
}


def load_config(path) -> dict:
    """Load and structurally validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    _check_keys(cfg, {name for name in _SECTION_KEYS if "." not in name}, "config")
    if "problem" not in cfg:
        raise ConfigError("config.problem: required section missing")
    for name, allowed in _SECTION_KEYS.items():
        section = cfg
        for key in name.split("."):
            if key not in section:
                break
            section = section[key]
        else:
            _check_keys(section, allowed, name)
    if not isinstance(cfg.get("output", {}).get("dir", ""), str):
        raise ConfigError("output.dir: expected a string")
    return cfg


def build_problem(cfg: dict, order_override: int | None = None) -> ProblemSpec:
    """Assemble a validated ProblemSpec from a parsed config."""
    prob = cfg["problem"]
    if "matrix" not in prob or "mode" not in prob or "forcing" not in prob:
        raise ConfigError("problem: needs 'matrix', 'mode', and 'forcing'")
    matrix = np.array(_rows(prob["matrix"], "problem.matrix"), dtype=complex)
    dim = matrix.shape[0]
    maps = _nonlinearity(prob.get("nonlinearity"), dim, "problem.nonlinearity")
    if not isinstance(prob["forcing"], list) or not prob["forcing"]:
        raise ConfigError("problem.forcing: expected a nonempty list")
    forcing = tuple(
        _forcing_record(rec, dim, f"problem.forcing[{i}]")
        for i, rec in enumerate(prob["forcing"])
    )
    order, where = cfg.get("expansion", {}).get("order", 4), "expansion.order"
    if order_override is not None:
        order, where = order_override, "--order"
    spec = ProblemSpec(
        matrix=matrix,
        maps=maps,
        forcing=forcing,
        mode=prob["mode"],
        scale_index=_int(prob.get("scale_index", 0), "problem.scale_index", 0),
        order=max(_int(order, where, 0), 1),
    )
    spec.validate()
    return spec


# ---------------------------------------------------------------------------
# Formatting


def _fmt(x: float) -> str:
    return format(float(x), ".17g")


# Printed term vectors drop parts below this fraction of the vector's norm.
PRINT_DUST_REL = 1e-13


def _fmt_complex(z: complex) -> str:
    return _fmt_complexes([complex(z).real], [complex(z).imag])[0]


def _fmt_complexes(re: list, im: list) -> list[str]:
    """Short forms of re[k] + im[k] i: re alone, im i alone, or (re+|im|i) / (re-|im|i)."""
    if not any(im):  # a real form
        return _nums(re)
    return [
        r if y == 0 else f"{m}i" if x == 0 else f"({r}{'+' if y > 0 else '-'}{m.lstrip('-')}i)"
        for x, y, r, m in zip(re, im, _nums(re), _nums(im))
    ]


def _num(x: float) -> str:
    return _nums([x])[0]


def _nums(xs: list) -> list[str]:
    # Short human form for tables; CSVs use the full 17 digits.
    return ["%.6g" % x if x % 1 or abs(x) >= 1e15 else str(int(x)) for x in xs]


def _slot_name(j: int) -> str:
    # Ladder component j >= 0: t, ln t, and iterated logs beyond that.
    return ("t", "ln t")[j] if j < 2 else f"ln_{j} t"


def _power_factor(j: int, a: complex, text: str) -> str:
    # The power a != 0 of ladder component j; text is a's short form.
    if j < 0:
        return f"e^({text}t)"
    name = _slot_name(j) if j == 0 else f"({_slot_name(j)})"
    return name if a == 1 else f"{name}^{text}"


def _ladder_term_strings(tables: list) -> list[str]:
    """Human form of ladder rows, e.g. 2·t^-2, one string per table (keys,
    vecs): row k of a table is vecs[k] times the ladder power and trig
    factors of keys[k] = (alpha, factors), the shape of a real form; an
    exponential row vec·t^d·e^(nu t) has the key ((nu, d), ()).  A table
    without rows prints as 0.

    Real and imaginary parts below PRINT_DUST_REL of their row's norm are
    rounding dust: printed, they would change with every last-bit change of
    a solve.  They are zeroed for all rows at once; the output files keep
    every digit.  The rows of all tables are formatted in one pass, and each
    distinct exponent and trig factor once.
    """
    keys = [key for table, _ in tables for key in table]
    if not keys:
        return ["0"] * len(tables)
    vecs = np.concatenate([np.asarray(v, dtype=complex) for _, v in tables])
    tol = PRINT_DUST_REL * row_norms(vecs)[:, None]
    re = np.where(abs(vecs.real) < tol, 0.0, vecs.real).ravel().tolist()
    im = np.where(abs(vecs.imag) < tol, 0.0, vecs.imag).ravel().tolist()
    vals, dim = _fmt_complexes(re, im), vecs.shape[1]
    if dim > 1:
        vals = ["(" + ",".join(vals[k : k + dim]) + ")" for k in range(0, len(vals), dim)]
    alphas, factors = zip(*keys)
    powers = [_power_column(j, c) for j, c in enumerate(zip_longest(*alphas, fillvalue=0), -1)]
    trig = {f: "·".join(f"{p}({_num(w)}·{_slot_name(j)})" for j, w, p in f) for f in set(factors)}
    rows = ["·".join(filter(None, r)) for r in zip(vals, *powers, map(trig.__getitem__, factors))]
    ends = np.cumsum([len(table) for table, _ in tables]).tolist()
    return [" + ".join(rows[lo:hi]) or "0" for lo, hi in zip([0] + ends, ends)]


def _power_column(j: int, exponents: tuple) -> list[str]:
    """The printed powers of ladder component j, "" for a zero exponent; each
    distinct exponent is formatted once."""
    distinct = [complex(a) for a in set(exponents) if a != 0]
    texts = _fmt_complexes([a.real for a in distinct], [a.imag for a in distinct])
    printed = {a: _power_factor(j, a, text) for a, text in zip(distinct, texts)}
    return [printed.get(a, "") for a in exponents]


# ---------------------------------------------------------------------------
# Serialization


def _order_record(k: int, order) -> dict:
    rec, term = {"order": k, "rate": float(order.mu)}, order.term
    if isinstance(term, ExpPolySum):
        kernel = [m.to_records() for m in order.kernel]
        return {**rec, "type": "exp_poly", "terms": term.to_records(), "kernel": kernel}
    return {**rec, "type": "log_power", "depth": term.depth, "terms": term.to_records()}


def expansion_records(expansion: Expansion) -> dict:
    return {
        "mode": expansion.mode,
        "scale_index": expansion.spec.scale_index,
        "dim": expansion.spec.dim,
        "rates": [float(mu) for mu in expansion.rates],
        "orders": [_order_record(k, order) for k, order in enumerate(expansion.orders, 1)],
    }


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def _term_table(expansion: Expansion) -> str:
    views = [ladder_view(order.term) for order in expansion.orders]
    strings = _ladder_term_strings([([(a, ()) for a in v.alphas.tolist()], v.xis) for v in views])
    lines = []
    for k, (order, s) in enumerate(zip(expansion.orders, strings), 1):
        kernel = f"   [{len(order.kernel)} free kernel mode(s)]" if order.kernel else ""
        lines.append(f"  {k:3d}  rate {_num(order.mu):>8}   {s}{kernel}")
    return "\n".join(lines)


def cmd_expand(cfg: dict, spec: ProblemSpec, args) -> int:
    expansion = expand(spec)
    print(f"mode: {expansion.mode}, orders: {expansion.order_count()}")
    print(_term_table(expansion))
    out = _out_dir(cfg, args)
    records = expansion_records(expansion)
    _write(out, "expansion.json", json.dumps(records) + "\n")
    print(f"wrote {out / 'expansion.json'}")
    return 0


def _verify_options(cfg: dict, spec: ProblemSpec, order: int | None) -> dict:
    """``verify``'s arguments from the verification section and --order (or None).
    Every check that needs no expansion runs here, before anything is built."""
    ver = cfg.get("verification")
    if ver is None:
        raise ConfigError("verification: section required for this subcommand")
    for field in ("y0", "t_span"):
        if field not in ver:
            raise ConfigError(f"verification.{field}: required")
    if not isinstance(ver["y0"], list) or len(ver["y0"]) != spec.dim:
        raise ConfigError(f"verification.y0: expected a list of {spec.dim} numbers")
    y0 = [_complex(x, f"verification.y0[{i}]") for i, x in enumerate(ver["y0"])]
    t_span = _span(ver["t_span"], "verification.t_span")
    rel_tol = _real(ver.get("rel_tol", 1e-10), "verification.rel_tol")
    if rel_tol < 0:
        raise ConfigError("verification.rel_tol: expected a number >= 0")
    abs_tol = _real(ver.get("abs_tol", 1e-12), "verification.abs_tol")
    if not abs_tol > 0:
        raise ConfigError("verification.abs_tol: expected a positive number")
    margin = _real(ver.get("margin", 0.1), "verification.margin")
    window = ver.get("fit_window")
    if window is not None:
        window = _span(window, "verification.fit_window")
    fit_res = ver.get("fit_resonant")
    if fit_res is not None:
        k = _int(fit_res.get("order"), "verification.fit_resonant.order", 1, spec.order)
        k_window = _span(fit_res.get("window", list(t_span)), "verification.fit_resonant.window")
        if k_window[0] < t_span[0] or k_window[1] > t_span[1]:
            raise ConfigError("verification.fit_resonant.window: must lie inside t_span")
        fit_res = (k, k_window)
    grid_cfg = ver.get("grid", {})
    # the decay fit needs at least three samples
    count = _int(grid_cfg.get("count", 200), "verification.grid.count", 3)
    kind = grid_cfg.get("kind", "linear" if spec.mode == "exponential" else "geometric")
    spacing = {"linear": np.linspace, "geometric": np.geomspace}.get(kind)
    if spacing is None:
        raise ConfigError("verification.grid.kind: expected 'linear' or 'geometric'")
    if kind == "geometric" and t_span[0] <= 0:
        raise ConfigError("verification.grid: geometric grid needs t_span > 0")
    grid = spacing(t_span[0], t_span[1], count)
    # the decay fit needs three samples in its window; check before integrating
    first, last = decay_fit_window(grid, window)
    if np.count_nonzero((grid >= first) & (grid <= last)) < 3:
        where = ("fit_window:" if window is not None
                 else "grid: the default fit window (the trailing 40% of t_span)")
        raise ConfigError(f"verification.{where} holds fewer than 3 points of the sample grid")
    lo = max(
        (term.domain_start for _, term in spec.forcing if isinstance(term, LogPowerSum)),
        default=-math.inf,
    )
    if t_span[0] <= lo:
        raise ConfigError(
            f"verification.t_span: starts at {t_span[0]}, but the forcing is only "
            f"defined for t > {lo}"
        )
    # an explicit order 0, from --order or else the config, checks N = 0 alone:
    # the solution against the first rate (the expansion still has order 1)
    requested = cfg.get("expansion", {}).get("order") if order is None else order
    orders = [0] if requested == 0 else list(range(1, spec.order + 1))
    return dict(y0=y0, t_span=t_span, grid=grid, rel_tol=rel_tol, abs_tol=abs_tol,
                margin=margin, window=window, fit_resonant=fit_res, orders=orders)


def verify(spec: ProblemSpec, expansion: Expansion, y0, t_span, grid, *, rel_tol, abs_tol,
           margin, window, fit_resonant, orders) -> VerifyResult:
    """Integrate, then gate the decay of |y - S_N| on grid for each N of orders: N
    passes when its exponent, fitted on window (None: fit_decay's), reaches mu_N - margin
    (N = 0: the solution against mu_1).  fit_resonant (k, window) adds order k's fitted
    kernel constants to S_N for N >= k, fitted only when some N of orders is >= k.
    It lives in cli, where the bench wraps its steps."""
    if fit_resonant is not None and not expansion.orders[fit_resonant[0] - 1].kernel:
        k = fit_resonant[0]
        raise ValidationError(f"verification.fit_resonant.order: order {k} has no kernel modes")
    traj = integrate(spec, y0, t_span, rel_tol=rel_tol, abs_tol=abs_tol)
    kernel = None
    if fit_resonant is not None and orders[-1] >= fit_resonant[0]:  # else no checked S_N has it
        kernel = (fit_resonant[0], fit_kernel_constants(traj, expansion, *fit_resonant))
    table = remainder_series(traj, expansion, orders[-1], grid, kernel)
    thresholds = tuple(expansion.rates[max(n - 1, 0)] - margin for n in orders)
    fits = []
    for n in orders:
        try:
            fits.append(fit_decay(grid, table[n], spec.mode, spec.scale_index, window))
        except SparseFitWindow:  # a remainder at the noise floor has no measurable decay
            fits.append(None)
    passed = tuple(f is not None and f.exponent >= x for f, x in zip(fits, thresholds))
    return VerifyResult(
        grid=grid, orders=tuple(orders), remainders=table[list(orders)], threshold=thresholds,
        fit=tuple(fits), passed=passed, kernel=kernel, meta=traj.meta,
    )


def cmd_verify(cfg: dict, spec: ProblemSpec, args) -> int:
    options = _verify_options(cfg, spec, args.order)  # a bad config fails before expand
    result = verify(spec, expand(spec), **options)
    if result.kernel is not None:
        k, coeffs = result.kernel
        print(f"fitted {len(coeffs)} kernel constant(s) at order {k}: "
              + ", ".join(map(_fmt_complex, coeffs)))
    report = ""
    for n, threshold, fit, ok in zip(result.orders, result.threshold, result.fit, result.passed):
        if fit is None:  # the window held fewer than 3 samples above the noise floor
            got, stats = "no exponent (fewer than 3 usable samples in the fit window)", ""
        else:
            got = f"exponent={fit.exponent:.6f}"
            stats = f" R2={fit.r_squared:.8f} window=[{fit.window[0]:.6g},{fit.window[1]:.6g}]"
        report += f"N={n}: {got} target>={threshold:.6f}{stats} {'PASS' if ok else 'FAIL'}\n"
    print(report, end="")
    csv = [["t"] + [f"remainder_N{n}" for n in result.orders]]
    csv += [map(_fmt, row) for row in np.column_stack([result.grid, result.remainders.T]).tolist()]
    out = _out_dir(cfg, args)
    _write(out, "remainders.csv", "".join(",".join(row) + "\n" for row in csv))
    _write(out, "verify.txt", report)
    return 0 if all(result.passed) else 1


def _realify_grid(expansion: Expansion, spec: ProblemSpec) -> np.ndarray:
    if spec.mode == "exponential":
        return np.linspace(0.0, 40.0 / max(spec.slowest_rate(), 0.1), 33)
    sums = [t for _, t in spec.forcing] + [o.term for o in expansion.orders]
    deepest = max(sums, key=lambda t: t.depth)
    lo = deepest.domain_start
    if not math.isfinite(lo):
        raise ValidationError(
            f"realify: a depth-{deepest.depth} sum has no finite sample grid "
            f"(evaluation threshold {lo})"
        )
    start = max(2.0 * lo, 10.0)
    return np.geomspace(start, start * 1e3, 33)


def cmd_realify(cfg: dict, spec: ProblemSpec, args) -> int:
    if not np.all(np.isreal(spec.matrix)):
        raise ValidationError("realify needs a real matrix")
    for g in spec.maps:
        if not g.is_real():
            raise ValidationError("realify needs real nonlinearity coefficients")
    for mu, term in spec.forcing:
        witness = asymmetry_witness(term)
        if witness is not None:
            raise ValidationError(
                f"forcing at rate {mu:g} is not conjugation-symmetric: "
                f"term {witness} has no matching partner"
            )
    expansion = expand(spec)
    grid = _realify_grid(expansion, spec)
    worst = 0.0
    tables = []  # the real form of each order, as (keys, vecs)
    for k, order in enumerate(expansion.orders, 1):
        term, rows = order.term, []
        if not term.is_zero():
            worst = max(worst, imag_residue(term, grid))
            convert = to_trig_poly if isinstance(term, ExpPolySum) else to_trig_ladder
            try:
                rows = convert(term)
            except ValueError as e:  # the term has no real form
                raise ValidationError(f"order {k}: {e}") from e
        tables.append(([key for key, _ in rows], np.reshape([v for _, v in rows], (-1, spec.dim))))
    table = "\n".join(
        f"  {k:3d}  rate {_num(o.mu):>8}   {s}"
        for k, (o, s) in enumerate(zip(expansion.orders, _ladder_term_strings(tables)), 1)
    )
    print(table)
    print(f"max imaginary residue on the sample grid: {worst:.3e}")
    out = _out_dir(cfg, args)
    _write(out, "real_terms.txt", table + f"\nmax_imag_residue,{_fmt(worst)}\n")
    return 0


def cmd_certificate(cfg: dict, spec: ProblemSpec, args) -> int:
    cert_cfg = cfg.get("certificate")
    if cert_cfg is None or "probe_radius" not in cert_cfg:
        raise ConfigError("certificate.probe_radius: required for this subcommand")
    radius = _real(cert_cfg["probe_radius"], "certificate.probe_radius")
    if not radius > 0:
        raise ConfigError("certificate.probe_radius: expected a positive number")
    samples = _int(cert_cfg.get("samples", 1024), "certificate.samples", 1)
    cert = smallness_certificate(spec, radius, samples)
    rows = [
        ("slowest_decay_rate", cert.lambda1),
        ("envelope_constant", cert.envelope_constant),
        ("quadratic_constant", cert.quadratic_constant),
        ("probe_radius", cert.probe_radius),
        ("ball_radius", cert.ball_radius),
        ("initial_bound", cert.initial_bound),
        ("forcing_bound", cert.forcing_bound),
    ]
    for name, val in rows:
        print(f"{name:>22}: {val:.12g}")
    out = _out_dir(cfg, args)
    _write(
        out,
        "certificate.csv",
        "quantity,value\n" + "\n".join(f"{n},{_fmt(v)}" for n, v in rows) + "\n",
    )
    return 0


def _out_dir(cfg: dict, args) -> Path:
    if args.out is not None:
        return Path(args.out)
    return Path(cfg.get("output", {}).get("dir", "."))


# name -> (help, handler); main builds the problem and passes it on
_COMMANDS = {
    "expand": ("build expansion terms and serialize them", cmd_expand),
    "verify": ("integrate the ODE and fit remainder decay rates", cmd_verify),
    "realify": ("convert a conjugation-symmetric expansion to real form", cmd_realify),
    "certificate": ("compute small-data decay constants", cmd_certificate),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="odexpand",
        description="Asymptotic expansion construction and verification "
        "for dissipative ODE systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (help_text, _) in _COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--order", type=int, default=None, help="override expansion.order")
        p.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        spec = build_problem(cfg, args.order)
        return _COMMANDS[args.command][1](cfg, spec, args)
    except (ConfigError, ValidationError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps to exit codes
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
