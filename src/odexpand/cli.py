"""Configuration-driven command line front end.

Subcommands and the files they write: expand (build terms; expansion.json,
compact, read it with python -m json.tool), verify (integrate and fit
remainder decay; verify.txt, remainders.csv), realify (real-form tables;
real_terms.txt), certificate (small-data decay constants; certificate.csv).
Configs are JSON; complex numbers are written as [re, im]; unknown fields are
rejected with their path.  The sections and their keys:

    problem       matrix, mode, forcing (required); nonlinearity,
                  scale_index.  Each forcing record has rate, type
                  (exp_poly, log_power or real_trig_ladder), terms, and
                  depth for the last two.
    expansion     order (default 4).  The exponent ladder is derived
                  from the problem; see ProblemSpec.
    verification  y0, t_span (required by verify); rel_tol, abs_tol,
                  margin, fit_window, grid {kind, count},
                  fit_resonant {order, window}.
    certificate   probe_radius (required by certificate), samples.
    output        dir (overridden by --out).

Exit codes: 0 pass, 1 verification fail, 2 validation error, 3 runtime
error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from .engine import (
    Expansion,
    ProblemSpec,
    ValidationError,
    expand,
)
from .expsum import ExpPolySum, snap_float
from .ladder import exp_zero
from .logpower import LogPowerSum
from .multilinear import MultiLinearMap
from .numerics import (
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

__all__ = ["main", "load_config", "build_problem"]


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
            nu = _complex(term.get("exponent"), f"{p}.exponent")
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

    raw = []
    for i, term in enumerate(terms):
        p = f"{path}.terms[{i}]"
        if kind == "log_power":
            _check_keys(term, {"alpha", "vector"}, p)
            alpha = numbers(term, "alpha", p, depth + 2)
            raw.append((alpha, np.array(numbers(term, "vector", p, dim), dtype=complex)))
            continue
        _check_keys(term, {"alpha", "factors", "vector"}, p)
        alpha = tuple(numbers(term, "alpha", p, depth + 2))
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
            omega = _real(fac.get("omega"), f"{fp}.omega")
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


_TOP_KEYS = {"problem", "expansion", "verification", "certificate", "output"}
_PROBLEM_KEYS = {"matrix", "nonlinearity", "forcing", "mode", "scale_index"}
_EXPANSION_KEYS = {"order"}
_VERIFICATION_KEYS = {
    "y0",
    "t_span",
    "rel_tol",
    "abs_tol",
    "margin",
    "fit_window",
    "grid",
    "fit_resonant",
}
_CERTIFICATE_KEYS = {"probe_radius", "samples"}
_OUTPUT_KEYS = {"dir"}


def load_config(path) -> dict:
    """Load and structurally validate a config file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    _check_keys(cfg, _TOP_KEYS, "config")
    if "problem" not in cfg:
        raise ConfigError("config.problem: required section missing")
    _check_keys(cfg["problem"], _PROBLEM_KEYS, "problem")
    if "expansion" in cfg:
        _check_keys(cfg["expansion"], _EXPANSION_KEYS, "expansion")
    if "verification" in cfg:
        _check_keys(cfg["verification"], _VERIFICATION_KEYS, "verification")
        if "grid" in cfg["verification"]:
            _check_keys(cfg["verification"]["grid"], {"kind", "count"}, "verification.grid")
        if "fit_resonant" in cfg["verification"]:
            _check_keys(
                cfg["verification"]["fit_resonant"],
                {"order", "window"},
                "verification.fit_resonant",
            )
    if "certificate" in cfg:
        _check_keys(cfg["certificate"], _CERTIFICATE_KEYS, "certificate")
    if "output" in cfg:
        _check_keys(cfg["output"], _OUTPUT_KEYS, "output")
        if not isinstance(cfg["output"].get("dir", ""), str):
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
    order = cfg.get("expansion", {}).get("order", 4)
    if order_override is not None:
        order = order_override
    spec = ProblemSpec(
        matrix=matrix,
        maps=maps,
        forcing=forcing,
        mode=prob["mode"],
        scale_index=_int(prob.get("scale_index", 0), "problem.scale_index", 0),
        order=max(_int(order, "expansion.order", 0), 1),
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
    z = complex(z)
    if z.imag == 0:
        return _num(z.real)
    if z.real == 0:
        return f"{_num(z.imag)}i"
    sign = "+" if z.imag > 0 else "-"
    return f"({_num(z.real)}{sign}{_num(abs(z.imag))}i)"


def _num(x: float) -> str:
    # Short human form for tables; CSVs use the full 17 digits.
    if x == int(x) and abs(x) < 1e15:
        return str(int(x))
    return format(x, ".6g")


def _slot_name(j: int) -> str:
    # Ladder component j: t, ln t, and iterated logs beyond that.
    if j == 0:
        return "t"
    if j == 1:
        return "ln t"
    return f"ln_{j} t"


def _vec_str(vec) -> str:
    # Real and imaginary parts below PRINT_DUST_REL of the vector's norm are
    # rounding dust: printed, they would change with every last-bit change
    # of a solve.  The output files keep every digit.
    vec = np.atleast_1d(np.asarray(vec, dtype=complex))
    tol = PRINT_DUST_REL * np.linalg.norm(vec)
    re = np.where(abs(vec.real) < tol, 0.0, vec.real)
    im = np.where(abs(vec.imag) < tol, 0.0, vec.imag)
    vals = [_fmt_complex(complex(r, i)) for r, i in zip(re, im)]
    if len(vals) == 1:
        return vals[0]
    return "(" + ",".join(vals) + ")"


def _power_factor(j: int, a: complex) -> str | None:
    if a == 0:
        return None
    if j < 0:
        return f"e^({_fmt_complex(a)}t)"
    name = _slot_name(j)
    if j >= 1:
        name = f"({name})"
    if a == 1:
        return name
    return f"{name}^{_fmt_complex(a)}"


def _ladder_term_string(rows) -> str:
    """Human form of ((alpha, trig factors), vec) ladder rows, the shape of a
    real form, e.g. 2·t^-2; an exponential row vec·t^d·e^(nu t) is the row
    (((nu, d), ()), vec)."""
    parts = []
    for (alpha, factors), vec in rows:
        bits = [_vec_str(vec)]
        for i, a in enumerate(alpha):
            f = _power_factor(i - 1, complex(a))
            if f is not None:
                bits.append(f)
        for j, omega, phase in factors:
            bits.append(f"{phase}({_num(omega)}·{_slot_name(j)})")
        parts.append("·".join(bits))
    return " + ".join(parts) or "0"


# ---------------------------------------------------------------------------
# Serialization


def _order_record(expansion: Expansion, k: int) -> dict:
    order = expansion.orders[k - 1]
    rec: dict = {"order": k, "rate": float(order.mu)}
    term = order.term
    if isinstance(term, ExpPolySum):
        rec["type"] = "exp_poly"
        rec["terms"] = term.to_records()
        rec["kernel"] = [m.to_records() for m in order.kernel]
    else:
        rec["type"] = "log_power"
        rec["depth"] = term.depth
        rec["terms"] = term.to_records()
    return rec


def expansion_records(expansion: Expansion) -> dict:
    return {
        "mode": expansion.mode,
        "scale_index": expansion.spec.scale_index,
        "dim": expansion.spec.dim,
        "rates": [float(mu) for mu in expansion.rates],
        "orders": [
            _order_record(expansion, k) for k in range(1, expansion.order_count() + 1)
        ],
    }


def _write(out_dir: Path, name: str, text: str) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / name, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


# ---------------------------------------------------------------------------
# Subcommands


def _term_table(expansion: Expansion) -> str:
    lines = []
    for k in range(1, expansion.order_count() + 1):
        order = expansion.orders[k - 1]
        term = order.term
        if isinstance(term, ExpPolySum):
            s = _ladder_term_string(
                (((nu, d), ()), row)
                for nu, rows in term.items()
                for d, row in enumerate(rows)
                if row.any()
            )
            if order.kernel:
                s += f"   [{len(order.kernel)} free kernel mode(s)]"
        else:
            s = _ladder_term_string(((alpha, ()), vec) for alpha, vec in term.items())
        lines.append(f"  {k:3d}  rate {_num(order.mu):>8}   {s}")
    return "\n".join(lines)


def cmd_expand(cfg: dict, args) -> int:
    spec = build_problem(cfg, args.order)
    expansion = expand(spec)
    print(f"mode: {expansion.mode}, orders: {expansion.order_count()}")
    print(_term_table(expansion))
    out = _out_dir(cfg, args)
    records = expansion_records(expansion)
    _write(out, "expansion.json", json.dumps(records) + "\n")
    print(f"wrote {out / 'expansion.json'}")
    return 0


def _verification_cfg(cfg: dict) -> dict:
    ver = cfg.get("verification")
    if ver is None:
        raise ConfigError("verification: section required for this subcommand")
    for field in ("y0", "t_span"):
        if field not in ver:
            raise ConfigError(f"verification.{field}: required")
    return ver


def _sample_grid(spec: ProblemSpec, t_span, ver: dict) -> np.ndarray:
    grid_cfg = ver.get("grid", {})
    # the decay fit needs at least three samples
    count = _int(grid_cfg.get("count", 200), "verification.grid.count", 3)
    kind = grid_cfg.get("kind", "linear" if spec.mode == "exponential" else "geometric")
    if kind == "geometric":
        if t_span[0] <= 0:
            raise ConfigError("verification.grid: geometric grid needs t_span > 0")
        return np.geomspace(t_span[0], t_span[1], count)
    if kind == "linear":
        return np.linspace(t_span[0], t_span[1], count)
    raise ConfigError("verification.grid.kind: expected 'linear' or 'geometric'")


def cmd_verify(cfg: dict, args) -> int:
    spec = build_problem(cfg, args.order)
    ver = _verification_cfg(cfg)
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
    grid = _sample_grid(spec, t_span, ver)
    # the decay fit needs three samples in its window; check before integrating
    if window is not None and np.count_nonzero((grid >= window[0]) & (grid <= window[1])) < 3:
        raise ConfigError("verification.fit_window: holds fewer than 3 points of the sample grid")
    # a ladder-power forcing term of depth d is defined for t > exp_zero(d + 1)
    depths = [term.depth for _, term in spec.forcing if isinstance(term, LogPowerSum)]
    lo = exp_zero(max(depths) + 1) if depths else -math.inf
    if t_span[0] <= lo:
        raise ConfigError(
            f"verification.t_span: starts at {t_span[0]}, but the forcing is only "
            f"defined for t > {lo}"
        )
    expansion = expand(spec)
    if fit_res is not None and not expansion.orders[k - 1].kernel:
        raise ConfigError(f"verification.fit_resonant.order: order {k} has no kernel modes")
    traj = integrate(spec, y0, t_span, rel_tol=rel_tol, abs_tol=abs_tol)
    kernel = None
    if fit_res is not None:
        coeffs = fit_kernel_constants(traj, expansion, k, k_window)
        kernel = (k, coeffs)
        print(
            f"fitted {len(coeffs)} kernel constant(s) at order {k}: "
            + ", ".join(_fmt_complex(c) for c in coeffs)
        )
    rates = expansion.rates
    all_pass = True
    columns = [("t", grid)]
    # N = 0 measures the solution itself against the first rate; it is
    # requested by an explicit order 0, from --order when given and from
    # the config otherwise (the expansion is still built to order 1 so the
    # target rate exists).
    requested = cfg.get("expansion", {}).get("order") if args.order is None else args.order
    if requested == 0:
        n_values = [0]
    else:
        n_values = list(range(1, expansion.order_count() + 1))
    report_lines = []
    table = remainder_series(traj, expansion, n_values[-1], grid, kernel)
    for n in n_values:
        rem = table[n]
        target = rates[0] if n == 0 else rates[n - 1]
        fit = fit_decay(grid, rem, spec.mode, spec.scale_index, window)
        ok = fit.exponent >= target - margin
        all_pass &= ok
        verdict = "PASS" if ok else "FAIL"
        line = (
            f"N={n}: exponent={fit.exponent:.6f} target>={target - margin:.6f} "
            f"R2={fit.r_squared:.8f} window=[{fit.window[0]:.6g},{fit.window[1]:.6g}] {verdict}"
        )
        print(line)
        report_lines.append(line)
        columns.append((f"remainder_N{n}", rem))
    out = _out_dir(cfg, args)
    header = ",".join(name for name, _ in columns)
    rows = [
        ",".join(_fmt(col[i]) for _, col in columns) for i in range(len(grid))
    ]
    _write(out, "remainders.csv", header + "\n" + "\n".join(rows) + "\n")
    _write(out, "verify.txt", "\n".join(report_lines) + "\n")
    return 0 if all_pass else 1


def _realify_grid(expansion: Expansion, spec: ProblemSpec) -> np.ndarray:
    if spec.mode == "exponential":
        return np.linspace(0.0, 40.0 / max(spec.slowest_rate(), 0.1), 33)
    depth = max(
        [t.depth for _, t in spec.forcing if isinstance(t, LogPowerSum)]
        + [
            o.term.depth
            for o in expansion.orders
            if isinstance(o.term, LogPowerSum)
        ]
    )
    lo = exp_zero(depth + 1)
    if not math.isfinite(lo):
        raise ValidationError(
            f"realify: a depth-{depth} sum has no finite sample grid "
            f"(evaluation threshold {lo})"
        )
    start = max(2.0 * lo, 10.0)
    return np.geomspace(start, start * 1e3, 33)


def cmd_realify(cfg: dict, args) -> int:
    spec = build_problem(cfg, args.order)
    if not np.all(np.isreal(spec.matrix)):
        raise ValidationError("realify needs a real matrix")
    for g in spec.maps:
        if not g.is_real(0.0):
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
    lines = []
    for k in range(1, expansion.order_count() + 1):
        order = expansion.orders[k - 1]
        term = order.term
        if term.is_zero():
            lines.append(f"  {k:3d}  rate {_num(order.mu):>8}   0")
            continue
        worst = max(worst, imag_residue(term, grid))
        convert = to_trig_poly if isinstance(term, ExpPolySum) else to_trig_ladder
        try:
            rows = convert(term)
        except ValueError as e:  # the term has no real form
            raise ValidationError(f"order {k}: {e}") from e
        lines.append(f"  {k:3d}  rate {_num(order.mu):>8}   {_ladder_term_string(rows)}")
    table = "\n".join(lines)
    print(table)
    print(f"max imaginary residue on the sample grid: {worst:.3e}")
    out = _out_dir(cfg, args)
    _write(out, "real_terms.txt", table + f"\nmax_imag_residue,{_fmt(worst)}\n")
    return 0


def cmd_certificate(cfg: dict, args) -> int:
    spec = build_problem(cfg, args.order)
    cert_cfg = cfg.get("certificate")
    if cert_cfg is None or "probe_radius" not in cert_cfg:
        raise ConfigError("certificate.probe_radius: required for this subcommand")
    radius = _real(cert_cfg["probe_radius"], "certificate.probe_radius")
    if not radius > 0:
        raise ConfigError("certificate.probe_radius: expected a positive number")
    samples = _int(cert_cfg.get("samples", 1024), "certificate.samples", 1)
    cert = smallness_certificate(spec, radius, samples=samples)
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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="odexpand",
        description="Asymptotic expansion construction and verification "
        "for dissipative ODE systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("expand", "build expansion terms and serialize them"),
        ("verify", "integrate the ODE and fit remainder decay rates"),
        ("realify", "convert a conjugation-symmetric expansion to real form"),
        ("certificate", "compute small-data decay constants"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to a JSON config")
        p.add_argument("--order", type=int, default=None, help="override expansion.order")
        p.add_argument("--out", default=None, help="output directory")

    args = parser.parse_args(argv)
    handlers = {
        "expand": cmd_expand,
        "verify": cmd_verify,
        "realify": cmd_realify,
        "certificate": cmd_certificate,
    }
    try:
        cfg = load_config(args.config)
        return handlers[args.command](cfg, args)
    except (ConfigError, ValidationError) as e:
        print(f"validation error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the CLI boundary maps to exit codes
        print(f"runtime error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
