"""Output summaries of single ops and their comparison with the reference.

An op's summary holds its exit code and the outputs the check looks at.
``reference/<workload>.json.gz`` holds the summary of every op on every
pool problem as the seed commit produced it (see capture.py).

Tolerances:

- expansion.json coefficients: within COEFF_REL of the largest coefficient
  of the same order, which is the repository's output contract; a term
  present on one side only counts as a zero coefficient on the other.
- verify: same exit code, the same N values with the same PASS/FAIL
  verdict, fitted exponents within EXPONENT_ABS, fitted kernel constants
  within KERNEL_REL of their largest.
- certificate: every quantity within CERT_REL, relative.
- realify: exit 0 and a max imaginary residue of at most REALIFY_RESIDUE.

An op whose reference also exited non-zero, and which exits with the same
code again, is a known failure: it counts as failed but not as wrong.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import numpy as np

COEFF_REL = 1e-13
EXPONENT_ABS = 0.05
KERNEL_REL = 1e-3
CERT_REL = 1e-9
REALIFY_RESIDUE = 1e-12

OK, KNOWN_FAILURE, WRONG = "ok", "known_failure", "wrong"

_VERDICT = re.compile(r"^N=(\d+): exponent=(\S+) .* (PASS|FAIL)$")
_KERNEL = re.compile(r"^fitted \d+ kernel constant\(s\) at order \d+: (.*)$")


def _complex_text(s: str) -> complex:
    # The CLI's short form: "2", "0.5i", "(1.5-2e-3i)".
    s = s.strip().strip("()").replace("i", "j")
    return complex(s)


def summarize(command: str, exit_code: int, out_dir: Path, stdout: str) -> dict:
    """What the check compares for one op; only plain JSON values."""
    summary: dict = {"exit": exit_code}
    if exit_code not in (0, 1):
        return summary
    if command == "expand":
        summary["expansion"] = json.loads((out_dir / "expansion.json").read_text())
    elif command == "verify":
        verdicts = []
        for line in (out_dir / "verify.txt").read_text().splitlines():
            m = _VERDICT.match(line)
            if m:
                verdicts.append([int(m.group(1)), float(m.group(2)), m.group(3)])
        summary["verdicts"] = verdicts
        for line in stdout.splitlines():
            m = _KERNEL.match(line)
            if m:
                summary["kernel"] = [
                    [z.real, z.imag] for z in map(_complex_text, m.group(1).split(", "))
                ]
    elif command == "certificate":
        with open(out_dir / "certificate.csv", newline="") as fh:
            summary["certificate"] = {r["quantity"]: float(r["value"]) for r in csv.DictReader(fh)}
    elif command == "realify":
        last = (out_dir / "real_terms.txt").read_text().splitlines()[-1]
        summary["max_imag_residue"] = float(last.split(",")[1])
    return summary


def _key(pairs) -> tuple:
    # Exponents are written on a 1e-12 grid; compare them on a coarser one.
    return tuple(round(float(x), 9) for x in np.ravel(pairs))


def _term_map(rec_terms, kind: str) -> dict:
    out = {}
    for t in rec_terms:
        if kind == "exp_poly":
            rows = np.array(t["coeffs"], dtype=float)
            out[_key(t["exponent"])] = rows[..., 0] + 1j * rows[..., 1]
        else:
            vec = np.array(t["xi"], dtype=float)
            out[_key(t["alpha"])] = vec[:, 0] + 1j * vec[:, 1]
    return out


def _sums_differ(ref_terms, got_terms, kind: str, where: str) -> list[str]:
    ref, got = _term_map(ref_terms, kind), _term_map(got_terms, kind)
    scale = max((float(abs(v).max()) for v in ref.values()), default=0.0)
    bound = COEFF_REL * scale
    errors = []
    for key in sorted(set(ref) | set(got)):
        a = np.atleast_2d(ref.get(key, np.zeros(1)))
        b = np.atleast_2d(got.get(key, np.zeros(1)))
        rows, cols = max(a.shape[0], b.shape[0]), max(a.shape[1], b.shape[1])
        pa, pb = np.zeros((rows, cols), complex), np.zeros((rows, cols), complex)
        pa[: a.shape[0], : a.shape[1]] = a
        pb[: b.shape[0], : b.shape[1]] = b
        dev = float(abs(pa - pb).max())
        if not dev <= bound:
            errors.append(f"{where} term {key}: deviation {dev:.3e} > {bound:.3e}")
    return errors


def compare_expansion(ref: dict, got: dict) -> list[str]:
    """Differences between two expansion.json documents beyond COEFF_REL."""
    errors = []
    for field in ("mode", "dim", "scale_index"):
        if ref[field] != got[field]:
            errors.append(f"{field}: {got[field]!r} != reference {ref[field]!r}")
    if len(ref["orders"]) != len(got["orders"]):
        return errors + [f"{len(got['orders'])} orders != reference {len(ref['orders'])}"]
    for r, g in zip(ref["orders"], got["orders"]):
        where = f"order {r['order']}"
        if r["type"] != g["type"] or r.get("depth") != g.get("depth"):
            errors.append(f"{where}: term type or depth differs")
            continue
        if abs(r["rate"] - g["rate"]) > 1e-12 * max(1.0, abs(r["rate"])):
            errors.append(f"{where}: rate {g['rate']} != reference {r['rate']}")
        errors += _sums_differ(r["terms"], g["terms"], r["type"], where)
        rk, gk = r.get("kernel", []), g.get("kernel", [])
        if len(rk) != len(gk):
            errors.append(f"{where}: {len(gk)} kernel modes != reference {len(rk)}")
        else:
            for i, (a, b) in enumerate(zip(rk, gk)):
                errors += _sums_differ(a, b, "exp_poly", f"{where} kernel mode {i}")
    return errors


def compare(command: str, ref: dict, got: dict) -> tuple[str, str]:
    """(status, reason) of one op against its reference summary."""
    if got["exit"] != 0:
        if ref["exit"] == got["exit"]:
            return KNOWN_FAILURE, f"exit {got['exit']}, as at the seed commit"
        return WRONG, f"exit {got['exit']}, reference exit {ref['exit']}"
    if command == "realify":
        # Judged by its own bound, so fixing a baseline failure shows as a pass.
        res = got["max_imag_residue"]
        if not res <= REALIFY_RESIDUE:
            return WRONG, f"max imaginary residue {res:.3e} > {REALIFY_RESIDUE:.0e}"
        return OK, ""
    if ref["exit"] != got["exit"]:
        return WRONG, f"exit {got['exit']}, reference exit {ref['exit']}"
    if command == "expand":
        errors = compare_expansion(ref["expansion"], got["expansion"])
    elif command == "verify":
        errors = _verify_differs(ref, got)
    elif command == "certificate":
        errors = [
            f"{name}: {got['certificate'].get(name)!r} != reference {value!r}"
            for name, value in ref["certificate"].items()
            if not abs(got["certificate"].get(name, np.inf) - value)
            <= CERT_REL * max(abs(value), 1e-300)
        ]
    else:
        raise ValueError(f"unknown command {command!r}")
    return (WRONG, "; ".join(errors[:3])) if errors else (OK, "")


def _verify_differs(ref: dict, got: dict) -> list[str]:
    rv, gv = ref["verdicts"], got["verdicts"]
    if [(n, v) for n, _, v in rv] != [(n, v) for n, _, v in gv]:
        return [f"verdicts {[(n, v) for n, _, v in gv]} != reference {[(n, v) for n, _, v in rv]}"]
    errors = [
        f"N={n}: exponent {e:.6f} != reference {r:.6f}"
        for (n, r, _), (_, e, _) in zip(rv, gv)
        if not abs(e - r) <= EXPONENT_ABS
    ]
    rk = np.array(ref.get("kernel", []), dtype=float).reshape(-1, 2)
    gk = np.array(got.get("kernel", []), dtype=float).reshape(-1, 2)
    if rk.shape != gk.shape:
        errors.append(f"{len(gk)} fitted kernel constants != reference {len(rk)}")
    elif rk.size:
        dev = float(abs(rk - gk).max())
        if not dev <= KERNEL_REL * float(abs(rk).max()):
            errors.append(f"kernel constants deviate by {dev:.3e}")
    return errors
