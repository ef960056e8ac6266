"""End-to-end CLI runs on the shipped configs.

``expand`` output is compared with ``golden/<config>.expansion.json``.
Record structure and term keys must match exactly; coefficients must
agree within 1e-13 of the largest coefficient of their order.  ``verify``
stdout is compared with ``golden/<config>.verify.txt`` (exit code and
verdicts exactly, fitted numbers within tolerance), ``certificate``
output with ``golden/certificate.certificate.csv``, and ``realify``
output with ``golden/<config>.real_terms.txt`` byte for byte.
"""

import dataclasses
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from odexpand import cli
from odexpand.cli import main
from odexpand.expsum import snap_float
from odexpand.logpower import ladder_view
from odexpand.numerics import DecayFit, VerifyResult
from odexpand.realify import asymmetry_witness

from helpers import assert_bitwise_equal, bench_module, ladder_view_oracle

CONFIGS = Path(__file__).resolve().parent.parent / "configs"
GOLDEN = Path(__file__).resolve().parent / "golden"
COEFF_REL = 1e-13


def _split(terms: list[dict]) -> tuple[list, list]:
    """Term keys and coefficient arrays of one serialized sum."""
    keys, coeffs = [], []
    for rec in terms:
        if "alpha" in rec:
            keys.append(rec["alpha"])
            coeffs.append(np.array(rec["xi"], dtype=float))
        else:
            keys.append(rec["exponent"])
            coeffs.append(np.array(rec["coeffs"], dtype=float))
    return keys, coeffs


def _order_sums(rec: dict) -> list[list[dict]]:
    return [rec["terms"]] + list(rec.get("kernel", []))


def _assert_matches_golden(got: dict, want: dict) -> None:
    assert {k: v for k, v in got.items() if k != "orders"} == {
        k: v for k, v in want.items() if k != "orders"
    }
    assert len(got["orders"]) == len(want["orders"])
    for g, w in zip(got["orders"], want["orders"]):
        assert g.keys() == w.keys()
        for field in g:
            if field not in ("terms", "kernel"):
                assert g[field] == w[field], (w["order"], field)
        split_g = [_split(s) for s in _order_sums(g)]
        split_w = [_split(s) for s in _order_sums(w)]
        assert [k for k, _ in split_g] == [k for k, _ in split_w], w["order"]
        scale = max(
            [float(abs(c).max()) for _, cs in split_w for c in cs if c.size] + [0.0]
        )
        for (_, cs_g), (_, cs_w) in zip(split_g, split_w):
            for cg, cw in zip(cs_g, cs_w):
                assert cg.shape == cw.shape, w["order"]
                assert float(abs(cg - cw).max(initial=0.0)) <= COEFF_REL * scale, w["order"]


@pytest.mark.parametrize(
    "name", ["certificate", "jordan_resonant", "oscillatory_log", "resonant", "riccati"]
)
def test_expand_matches_golden(name, tmp_path, capsys):
    code = main(["expand", "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    assert sorted(os.listdir(tmp_path)) == ["expansion.json"]
    got = json.loads((tmp_path / "expansion.json").read_text())
    want = json.loads((GOLDEN / f"{name}.expansion.json").read_text())
    _assert_matches_golden(got, want)


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_expand_prints_no_rounding_dust(tmp_path, capsys):
    # power-expand-000's order-4 t^-4 term is real; its imaginary parts are
    # rounding dust near 1e-18 and print as nothing
    config = tmp_path / "power-expand-000.json"
    config.write_text(bench_module("workloads").problem("power-expand", 0).config_text())
    assert main(["expand", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    line = next(l for l in capsys.readouterr().out.splitlines() if l.startswith("    4  rate"))
    assert " + (-0.0834422,-1.56875,-0.426768)·t^-4 + " in line


def test_printed_vectors_drop_parts_below_the_dust_line():
    def printed(*vecs):
        return cli._ladder_term_string([((0j, 0j), ())] * len(vecs), np.array(vecs))

    assert printed([-0.0834422 + 9.26952e-20j]) == "-0.0834422"
    assert printed([1.0, 3e-14j, 2e-13j]) == "(1,0,2e-13i)"
    assert printed([1.0 + 2e-13j, 1.5e-13]) == "((1+2e-13i),1.5e-13)"
    assert printed(np.zeros(2, dtype=complex)) == "(0,0)"
    # each row against its own norm
    assert printed([1.0, 3e-14j], [1e-14, 2e-27j]) == "(1,0) + (1e-14,2e-27i)"
    assert cli._ladder_term_string([], np.zeros((0, 2))) == "0"
    # exponents and fitted constants are printed in full
    assert cli._fmt_complex(1.0 + 1e-20j) == "(1+1e-20i)"


def test_golden_comparison_rejects_a_perturbed_coefficient():
    want = json.loads((GOLDEN / "riccati.expansion.json").read_text())
    got = json.loads(json.dumps(want))
    xi = got["orders"][1]["terms"][0]["xi"][0]
    xi[0] += 1e-10 * max(1.0, abs(xi[0]))
    with pytest.raises(AssertionError):
        _assert_matches_golden(got, want)


@pytest.mark.parametrize(
    "name", ["riccati", "oscillatory_log", "resonant", "certificate", "jordan_resonant"]
)
def test_realify_matches_golden(name, tmp_path):
    # the printed real form is pinned byte for byte, rows and residue line
    config = str(CONFIGS / f"{name}.json")
    assert main(["realify", "--config", config, "--out", str(tmp_path)]) == 0
    assert sorted(os.listdir(tmp_path)) == ["real_terms.txt"]
    got = (tmp_path / "real_terms.txt").read_bytes()
    assert got == (GOLDEN / f"{name}.real_terms.txt").read_bytes()
    residue = got.decode().splitlines()[-1]
    assert float(residue.split(",")[1]) <= 1e-12


def test_realify_of_a_sum_too_deep_to_sample_exits_two(tmp_path, capsys):
    # a depth-4 sum is defined only above exp_zero(5), which overflows to
    # inf; expand still runs, but realify has no grid to check realness on
    cfg = json.loads((CONFIGS / "oscillatory_log.json").read_text())
    forcing = cfg["problem"]["forcing"][0]
    forcing["depth"] = 4
    forcing["terms"][0]["alpha"].append(0.0)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["expand", "--config", str(config), "--out", str(tmp_path / "e")]) == 0
    capsys.readouterr()
    assert main(["realify", "--config", str(config), "--out", str(tmp_path / "r")]) == 2
    assert capsys.readouterr().err == (
        "validation error: realify: a depth-4 sum has no finite sample grid "
        "(evaluation threshold inf)\n"
    )
    assert not (tmp_path / "r").exists()


@pytest.mark.parametrize(
    "name,edit,message",
    [
        (
            "oscillatory_log",
            {"scale_index": 5},
            "forcing at rate 0.5 has depth 3, below scale_index 5",
        ),
        (
            "riccati",
            {"mode": "log", "scale_index": 1},
            "forcing at rate 1.0 has depth 0, below scale_index 1",
        ),
    ],
)
def test_scale_index_above_the_forcing_depth_exits_two(name, edit, message, tmp_path, capsys):
    # the (scale_index, -mu) class needs a component scale_index to sit on
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    cfg["problem"].update(edit)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert main(["expand", "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not (tmp_path / "out").exists()


def test_jordan_resonance_has_one_order_and_real_kernel_constants(tmp_path, capsys):
    # eigenvalue 1 sits in a 2x2 Jordan block, so its computed copies
    # scatter by about 7e-9; they are one rate with two kernel modes
    config = str(CONFIGS / "jordan_resonant.json")
    code = main(["expand", "--config", config, "--out", str(tmp_path / "e"), "--order", "3"])
    assert code == 0
    records = json.loads((tmp_path / "e" / "expansion.json").read_text())
    assert records["rates"] == [1.0, 2.0, 3.0]
    assert [len(o["kernel"]) for o in records["orders"]] == [2, 0, 1]
    capsys.readouterr()
    assert main(["verify", "--config", config, "--out", str(tmp_path / "v")]) == 0
    (line,) = [s for s in capsys.readouterr().out.splitlines() if s.startswith("fitted")]
    printed = line.split(": ", 1)[1].split(", ")
    constants = [complex(c.strip("()").replace("i", "j")) for c in printed]
    assert len(constants) == 2
    for c in constants:
        assert abs(c.imag) <= 1e-12 * abs(c)


def test_exponential_realify_keeps_the_decay(tmp_path, capsys):
    # y' = -y + y^2 + e^{-t} is resonant at rate 1: its first term t e^{-t}
    # keeps its decay factor in the real form, and expand prints the term
    # with its factors in the same order.
    config = str(CONFIGS / "certificate.json")
    assert main(["realify", "--config", config, "--out", str(tmp_path)]) == 0
    assert "rate        1   1·e^(-1t)·t\n" in capsys.readouterr().out
    assert main(["expand", "--config", config, "--out", str(tmp_path)]) == 0
    assert "rate        1   1·e^(-1t)·t   [1 free kernel mode(s)]\n" in capsys.readouterr().out


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
def test_exponential_realify_keeps_every_stored_row_at_a_deep_order(tmp_path, monkeypatch, capsys):
    # At order 12 the exp-resonant pool stores rows far below the largest row
    # of their order (rates 10-12).  expand prints them, so the real form must
    # keep them too: re-canonicalizing the ladder view dropped them at 60
    # orders of the 32 problems.
    workloads = bench_module("workloads")
    built = []
    expand = cli.expand
    monkeypatch.setattr(cli, "expand", lambda spec: built.append(expand(spec)) or built[-1])
    config = tmp_path / "config.json"
    for index in range(workloads.POOL_SIZE):
        config.write_text(workloads.problem("exp-resonant", index).config_text())
        argv = ["realify", "--config", str(config), "--order", "12", "--out", str(tmp_path)]
        assert main(argv) == 0, index
        for order in built.pop().orders:
            assert_bitwise_equal(ladder_view(order.term), ladder_view_oracle(order.term))
            assert asymmetry_witness(order.term) is None, (index, order.mu)
    capsys.readouterr()


def test_realify_without_a_real_form_exits_two(tmp_path, monkeypatch, capsys):
    # A real problem always expands to conjugation-symmetric terms, so the
    # converter's refusal is forced here.
    def refuse(term):
        raise ValueError("sum is not conjugation-symmetric at term (1j, -1)")

    monkeypatch.setattr(cli, "to_trig_ladder", refuse)
    config = str(CONFIGS / "riccati.json")
    assert main(["realify", "--config", config, "--out", str(tmp_path)]) == 2
    assert "order 1: sum is not conjugation-symmetric" in capsys.readouterr().err


def test_unknown_expansion_key_exits_two(tmp_path, capsys):
    # keys that were once accepted are rejected too, whether they never had
    # an effect or were removed
    for section, key, value in (
        ("expansion", "ladder_cutoff", 4.0),
        ("problem", "resonance_policy", "zero_free_constants"),
        ("output", "format", "txt"),
        ("expansion", "ladder_base", [1.0]),
    ):
        cfg = json.loads((CONFIGS / "riccati.json").read_text())
        cfg.setdefault(section, {})[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        assert main(["expand", "--config", str(path), "--out", str(tmp_path)]) == 2
        assert f"{section}.{key}: unknown field" in capsys.readouterr().err
    # and argparse rejects --format, which is no option
    config = str(CONFIGS / "riccati.json")
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--config", config, "--out", str(tmp_path), "--format", "txt"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --format txt" in capsys.readouterr().err


# Shipped config x subcommand pairs whose config lacks the subcommand's
# section; every other pair exits 0.
EXIT_TWO_PAIRS = [
    ("riccati", "certificate", "certificate.probe_radius: required for this subcommand"),
    ("resonant", "certificate", "certificate.probe_radius: required for this subcommand"),
    ("oscillatory_log", "certificate", "certificate.probe_radius: required for this subcommand"),
    ("oscillatory_log", "verify", "verification: section required for this subcommand"),
    ("certificate", "verify", "verification: section required for this subcommand"),
]


@pytest.mark.parametrize("name,command,message", EXIT_TWO_PAIRS)
def test_shipped_config_without_the_section_exits_two(name, command, message, tmp_path, capsys):
    config = str(CONFIGS / f"{name}.json")
    assert main([command, "--config", config, "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == f"validation error: {message}\n"
    assert not any(tmp_path.iterdir())


def _set(path: str, value):
    """Config edit: set the field at a JSON path such as ``a.b[0].c``
    (value None deletes it).  Missing objects on the way are created."""
    *parents, last = [int(k) if k.isdigit() else k for k in re.findall(r"[^.\[\]]+", path)]

    def edit(cfg):
        node = cfg
        for key in parents:
            node = node[key] if isinstance(key, int) else node.setdefault(key, {})
        if value is None:
            del node[last]
        else:
            node[last] = value

    return edit


MALFORMED_FIELDS = [
    ("verify", "verification.grid.count", "x"),
    ("verify", "verification.grid.count", 1),
    ("verify", "verification.rel_tol", "tight"),
    ("verify", "verification.t_span", [0.0]),
    ("verify", "verification.t_span", [14.0, 0.0]),
    ("verify", "verification.y0", [0.01, 0.0]),
    ("verify", "verification.fit_resonant.order", None),
    ("verify", "verification.fit_resonant.order", 3),
    ("verify", "verification.fit_resonant.window", [10.0]),
    ("verify", "verification.fit_resonant.window", [10.0, 20.0]),
    ("verify", "verification.margin", "a"),
    ("verify", "verification.fit_window", [1]),
    ("certificate", "certificate.samples", "many"),
    ("certificate", "certificate.samples", 0),
    ("certificate", "certificate.probe_radius", -1),
    # t_span is [0, 14], so no grid point falls in the window
    ("verify", "verification.fit_window", [100, 200]),
    ("expand", "problem.nonlinearity[0].entries", 5),
    ("expand", "problem.nonlinearity[0].entries[0]", [0, 0, 1, 1.0]),
    ("expand", "problem.forcing[0].terms", 5),
    ("expand", "problem.forcing[0].terms[0].rows", 5),
    ("expand", "problem.forcing[0].terms[0].rows", [[1.0], [1.0, 2.0]]),
    ("expand", "problem.forcing[0].terms[0].rows", []),
    ("expand", "problem.scale_index", "1"),
    ("expand", "problem.scale_index", 1.5),
    ("expand", "problem.matrix", [[2.0, 0.0], [1.0]]),
    ("expand", "expansion.order", True),
    # json reads NaN, Infinity and integers beyond a float's range
    ("verify", "verification.rel_tol", -1),
    ("verify", "verification.rel_tol", float("nan")),
    ("verify", "verification.abs_tol", 0),
    ("verify", "verification.abs_tol", float("inf")),
    ("verify", "verification.margin", float("nan")),
    ("verify", "verification.t_span", [0.0, float("inf")]),
    ("verify", "verification.y0", [float("nan")]),
    ("expand", "problem.forcing[0].rate", float("inf")),
    ("expand", "problem.matrix", [[float("-inf")]]),
    ("expand", "problem.nonlinearity[0].entries[0]", [0, 0, 0, 10**400]),
    ("certificate", "certificate.probe_radius", float("inf")),
    ("expand", "output.dir", 5),
]

# Fields of forcing types that resonant.json does not use, each edited in
# the shipped config that does; the subcommand is expand.
MALFORMED_FORCING_FIELDS = [
    ("riccati", "problem.forcing[0].terms[0].vector", [1.0, 2.0]),
    ("riccati", "problem.forcing[0].terms[0].alpha", [-1.0]),
    ("oscillatory_log", "problem.forcing[0].terms[0].factors", 5),
    ("oscillatory_log", "problem.forcing[0].terms[0].factors[0].index", "a"),
    ("oscillatory_log", "problem.forcing[0].terms[0].factors[0].index", 9),
    ("oscillatory_log", "problem.forcing[0].terms[0].alpha", [0.0, -0.5]),
    ("oscillatory_log", "problem.forcing[0].terms[0].vector", [1.0, 2.0]),
]


def _assert_exits_two_naming(cfg: dict, command, field, value, tmp_path, capsys):
    _set(field, value)(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(path), "--out", str(tmp_path)]) == 2
    assert f"validation error: {field}" in capsys.readouterr().err


@pytest.mark.parametrize("command,field,value", MALFORMED_FIELDS)
def test_malformed_field_exits_two_and_names_its_path(command, field, value, tmp_path, capsys):
    cfg = json.loads((CONFIGS / "resonant.json").read_text())
    cfg["certificate"] = {"probe_radius": 1.0, "samples": 64}
    _assert_exits_two_naming(cfg, command, field, value, tmp_path, capsys)


@pytest.mark.parametrize("name,field,value", MALFORMED_FORCING_FIELDS)
def test_malformed_forcing_field_exits_two_and_names_its_path(name, field, value, tmp_path, capsys):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    _assert_exits_two_naming(cfg, "expand", field, value, tmp_path, capsys)


# JSON true and false are no numbers, though Python's bool is an int: each
# edit is (config, subcommand, field set, value, path the error names).
BOOLEAN_FIELDS = [
    ("riccati", "expand", "problem.forcing[0].rate", True, "problem.forcing[0].rate"),
    ("riccati", "expand", "problem.forcing[0].terms[0].vector[0]", False, "problem.forcing[0].terms[0].vector[0]"),
    ("resonant", "expand", "problem.matrix[0][0]", True, "problem.matrix[0][0]"),
    ("resonant", "expand", "problem.matrix[0][0]", [2.0, False], "problem.matrix[0][0]"),
    ("resonant", "expand", "problem.nonlinearity[0].arity", True, "problem.nonlinearity[0].arity"),
    ("resonant", "expand", "problem.nonlinearity[0].entries[0][0]", False, "problem.nonlinearity[0].entries[0]"),
    ("resonant", "expand", "problem.nonlinearity[0].entries[0][2]", False, "problem.nonlinearity[0].entries[0]"),
    ("resonant", "verify", "verification.t_span[0]", False, "verification.t_span[0]"),
    ("resonant", "verify", "verification.rel_tol", True, "verification.rel_tol"),
    ("resonant", "verify", "verification.y0[0]", True, "verification.y0[0]"),
    ("oscillatory_log", "expand", "problem.forcing[0].terms[0].factors[1].omega", True, "problem.forcing[0].terms[0].factors[1].omega"),
    ("oscillatory_log", "expand", "problem.forcing[0].terms[0].alpha[4]", True, "problem.forcing[0].terms[0].alpha[4]"),
]


@pytest.mark.parametrize("name,command,field,value,path", BOOLEAN_FIELDS)
def test_boolean_for_a_number_exits_two_and_names_its_path(
    name, command, field, value, path, tmp_path, capsys
):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    _set(field, value)(cfg)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(cfg))
    assert main([command, "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith(f"validation error: {path}: ")


def test_t_span_outside_the_forcing_domain_exits_two_before_expanding(
    tmp_path, monkeypatch, capsys
):
    # riccati's forcing t^-1 lives at depth 0, so it is defined for t > 1
    cfg = json.loads((CONFIGS / "riccati.json").read_text())
    cfg["verification"]["t_span"] = [1.0, 100.0]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    def refuse(spec):
        raise AssertionError("expand ran")

    monkeypatch.setattr(cli, "expand", refuse)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "validation error: verification.t_span: starts at 1.0, but the forcing "
        "is only defined for t > 1.0\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_verify_of_an_overflowing_exponential_forcing_exits_three(tmp_path, capsys):
    # resonant's e^-t overflows at t = -800: the forcing kernel falls back
    # to eval's inf, and the integrator's finiteness check stops the run
    cfg = json.loads((CONFIGS / "resonant.json").read_text())
    cfg["verification"]["t_span"] = [-800.0, 14.0]
    cfg["verification"]["grid"]["count"] = 16000
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 3
    assert capsys.readouterr().err.endswith(
        "runtime error: ValueError: right-hand side not finite at the initial point\n"
    )


@pytest.mark.parametrize("order", [[], ["--order", "0"]], ids=["config-order", "N=0-alone"])
def test_kernel_fit_at_an_order_without_kernel_modes_exits_two_before_integrating(
    order, tmp_path, monkeypatch, capsys
):
    # riccati is in power mode: no order has kernel modes.  The check runs
    # even when no checked N would hold the constants.
    cfg = json.loads((CONFIGS / "riccati.json").read_text())
    cfg["verification"]["fit_resonant"] = {"order": 1, "window": [500.0, 1000.0]}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    def refuse(*args, **kwargs):
        raise AssertionError("integrate ran")

    monkeypatch.setattr(cli, "integrate", refuse)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")] + order) == 2
    assert capsys.readouterr().err == (
        "validation error: verification.fit_resonant.order: order 1 has no kernel modes\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("count", [3, 4])
def test_grid_too_coarse_for_the_default_fit_window_exits_two_before_integrating(
    count, tmp_path, monkeypatch, capsys
):
    # the default window, the trailing 40% of t_span, holds fewer than 3 of
    # count grid points; the whole integration used to run before every
    # order failed
    cfg = json.loads((CONFIGS / "riccati.json").read_text())
    cfg["verification"]["t_span"] = [10, 200]
    cfg["verification"]["grid"] = {"count": count}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))

    def refuse(*args, **kwargs):
        raise AssertionError("integrate ran")

    monkeypatch.setattr(cli, "integrate", refuse)
    assert main(["verify", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "validation error: verification.grid: the default fit window (the trailing 40% "
        "of t_span) holds fewer than 3 points of the sample grid\n"
    )
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("mode", ["power", "log"])
def test_ladder_that_merges_rates_exits_two(mode, tmp_path, capsys):
    # riccati with forcing t^(-1e-12), or (log t)^(-1e-12) in log mode: the
    # quadratic's rate 2e-12 cannot be told apart from 1e-12
    cfg = json.loads((CONFIGS / "riccati.json").read_text())
    forcing = cfg["problem"]["forcing"][0]
    forcing["rate"] = 1e-12
    if mode == "log":
        cfg["problem"].update(mode="log", scale_index=1)
        forcing.update(depth=1, terms=[{"alpha": [0.0, 0.0, -1e-12], "vector": [1.0]}])
    else:
        forcing["terms"][0]["alpha"] = [0.0, -1e-12]
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["expand", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "validation error: ladder step 1e-12 from rate 1e-12 lands within the "
        "rate match tolerance; the two rates cannot be told apart\n"
    )
    assert not any(tmp_path.glob("expansion.json"))


# Exponents whose parts leave the snapping range, x / EXPONENT_GRID not
# finite: (config, field set, value).  Each exited 3 before the parser
# checked the range, with OverflowError from snapping (LinAlgError for the
# exponential one).
OFF_GRID_EXPONENTS = [
    ("riccati", "problem.forcing[0].terms[0].alpha[0]", [0.0, 1e308]),
    ("resonant", "problem.forcing[0].terms[0].exponent", [-1.0, 1e308]),
    ("oscillatory_log", "problem.forcing[0].terms[0].factors[0].omega", 1e308),
    ("oscillatory_log", "problem.forcing[0].terms[0].alpha[1]", 1e300),
]


@pytest.mark.parametrize("name,field,value", OFF_GRID_EXPONENTS)
def test_exponent_beyond_the_snapping_range_exits_two(name, field, value, tmp_path, capsys):
    cfg = json.loads((CONFIGS / f"{name}.json").read_text())
    _set(field, value)(cfg)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["expand", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        f"validation error: {field}: too large to snap onto the exponent grid of step 1e-12\n"
    )
    assert not (tmp_path / "out").exists()


def test_the_snapping_range_ends_where_the_grid_index_overflows():
    assert cli._exponent(1e296, "x") == 1e296 == snap_float(1e296)
    assert cli._exponent(complex(-1.0, -1e296), "x") == complex(-1.0, -1e296)
    for value in (1.8e296, complex(0.0, -1e300)):
        with pytest.raises(cli.ConfigError, match="^x: too large to snap"):
            cli._exponent(value, "x")


def _riccati_with_exponent(component: int, value, tmp_path) -> Path:
    """riccati.json with alpha[component] of its forcing term set to value."""
    cfg = json.loads((CONFIGS / "riccati.json").read_text())
    cfg["problem"]["forcing"][0]["terms"][0]["alpha"][component] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


def test_a_coefficient_whose_norm_overflows_in_expand_exits_three(tmp_path, capsys):
    # t^(-1 + 1e296 i) snaps onto the grid, but the descent of order 1
    # multiplies its coefficient by a(0), and that row's norm overflows.  The
    # parser cannot bound what the engine forms, so this is a runtime error.
    # Tier-1 turns RuntimeWarnings into errors: a numpy overflow warning in
    # the norm would end the run in the ValueError's place.
    config = _riccati_with_exponent(1, [-1.0, 1e296], tmp_path)
    assert main(["expand", "--config", str(config), "--out", str(tmp_path / "out")]) == 3
    err = capsys.readouterr().err
    assert err.endswith(
        "runtime error: ValueError: non-finite coefficient in a LogPowerSum (largest norm inf)\n"
    )
    assert "overflow encountered" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["expand", "verify", "realify"])
@pytest.mark.parametrize("re", [1e-10, 5e-10])
def test_a_real_part_within_the_class_tolerance_runs(re, command, tmp_path):
    # |Re a(-1)| <= CLASS_TOL = 1e-9 is in the (0, -1) class, and in_class
    # alone decides that: the shifted solve used to reject any real part
    # above 1e-12 and exit 3
    config = _riccati_with_exponent(0, [re, 0.0], tmp_path)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 0


@pytest.mark.parametrize("command", ["expand", "verify", "realify"])
def test_a_real_part_beyond_the_class_tolerance_exits_two(command, tmp_path, capsys):
    config = _riccati_with_exponent(0, [2e-9, 0.0], tmp_path)
    assert main([command, "--config", str(config), "--out", str(tmp_path / "out")]) == 2
    assert capsys.readouterr().err == (
        "validation error: forcing at rate 1.0 is outside the (0, -1.0) class\n"
    )
    assert not (tmp_path / "out").exists()


def _oscillatory_log_with_factor(factor: dict, tmp_path) -> Path:
    cfg = json.loads((CONFIGS / "oscillatory_log.json").read_text())
    cfg["problem"]["forcing"][0]["terms"][0]["factors"].append(factor)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    return path


@pytest.mark.parametrize("omega", [1.0, -7.0, 1e-11])
def test_second_trig_factor_on_a_component_exits_two(omega, tmp_path, capsys):
    # oscillatory_log's term has factors on components 0, 2 and 3
    config = _oscillatory_log_with_factor({"index": 2, "omega": omega, "phase": "cos"}, tmp_path)
    assert main(["expand", "--config", str(config), "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == (
        "validation error: problem.forcing[0].terms[0].factors[3].index: "
        "ladder component 2 already has a trig factor\n"
    )
    assert not any(tmp_path.glob("expansion.json"))


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
@pytest.mark.parametrize("omega", [0.0, -0.0, 4e-13])
def test_cos_factor_of_zero_frequency_is_dropped_not_rejected(omega, tmp_path):
    # cos(0 x) = 1: the factor is dropped, as if it were never there
    config = _oscillatory_log_with_factor({"index": 2, "omega": omega, "phase": "cos"}, tmp_path)
    assert main(["expand", "--config", str(config), "--out", str(tmp_path / "edited")]) == 0
    shipped = str(CONFIGS / "oscillatory_log.json")
    assert main(["expand", "--config", shipped, "--out", str(tmp_path / "shipped")]) == 0
    assert (tmp_path / "edited" / "expansion.json").read_bytes() == (
        tmp_path / "shipped" / "expansion.json"
    ).read_bytes()


VERIFY_LINE = re.compile(r"^N=(\d+): exponent=(\S+) .* (PASS|FAIL)$", re.MULTILINE)
KERNEL_LINE = re.compile(r"^fitted \d+ kernel constant\(s\) at order \d+: (.*)$", re.MULTILINE)


def _verify_results(text: str) -> tuple[list, list, list]:
    """Verdict per N, fitted exponent per N, and fitted kernel constants."""
    lines = VERIFY_LINE.findall(text)
    kernels = [
        complex(c.strip("()").replace("i", "j"))
        for m in KERNEL_LINE.findall(text)
        for c in m.split(", ")
    ]
    return [(int(n), v) for n, _, v in lines], [float(e) for _, e, _ in lines], kernels


def _riccati_t1000(tmp_path: Path) -> Path:
    cfg = json.loads((CONFIGS / "riccati.json").read_text())
    cfg["verification"]["t_span"] = [10.0, 1000.0]
    path = tmp_path / "riccati_t1000.json"
    path.write_text(json.dumps(cfg))
    return path


# Fitted exponents must match within 1e-4 except where the fit sits at the
# integrator's noise floor.  resonant's N=2 remainder falls to about 1e-11
# inside its fit window, close to the integration error: scaling rel_tol
# by 1 - 1e-7 alone moves that exponent by 5.4e-4 and the order-2 kernel
# constant by 1e-5.
VERIFY_CASES = {
    "resonant": (lambda tmp_path: CONFIGS / "resonant.json", {1: 1e-4, 2: 1e-3}, 5e-5),
    "riccati_t1000": (_riccati_t1000, {1: 1e-4, 2: 1e-4}, None),
}


@pytest.mark.parametrize("name", sorted(VERIFY_CASES))
def test_verify_matches_golden(name, tmp_path, capsys):
    make_config, exp_tol, kernel_tol = VERIFY_CASES[name]
    out = tmp_path / "out"
    code = main(["verify", "--config", str(make_config(tmp_path)), "--out", str(out)])
    stdout = capsys.readouterr().out
    verdicts, exponents, kernels = _verify_results(stdout)
    want_verdicts, want_exponents, want_kernels = _verify_results(
        (GOLDEN / f"{name}.verify.txt").read_text()
    )
    assert code == (0 if all(v == "PASS" for _, v in want_verdicts) else 1)
    assert verdicts == want_verdicts
    for (n, _), got, want in zip(verdicts, exponents, want_exponents):
        assert abs(got - want) <= exp_tol[n], (n, got, want)
    assert len(kernels) == len(want_kernels)
    for got, want in zip(kernels, want_kernels):
        assert abs(got - want) <= kernel_tol
    report = [line for line in stdout.splitlines() if line.startswith("N=")]
    assert (out / "verify.txt").read_text().splitlines() == report


def test_certificate_matches_golden(tmp_path):
    config = str(CONFIGS / "certificate.json")
    assert main(["certificate", "--config", config, "--out", str(tmp_path)]) == 0

    def rows(text):
        return [line.split(",") for line in text.splitlines()[1:]]

    got = rows((tmp_path / "certificate.csv").read_text())
    want = rows((GOLDEN / "certificate.certificate.csv").read_text())
    assert [name for name, _ in got] == [name for name, _ in want]
    for (name, g), (_, w) in zip(got, want):
        assert float(g) == pytest.approx(float(w), rel=1e-9, abs=0.0), name


def test_certificate_computes_the_eigenvalues_once(tmp_path, monkeypatch):
    # lambda_1 comes from the problem's cached spectrum, and the envelope
    # constant reuses it; the file is the golden one byte for byte
    calls = []
    eigvals = np.linalg.eigvals

    def counted(a):
        calls.append(1)
        return eigvals(a)

    monkeypatch.setattr(np.linalg, "eigvals", counted)
    config = str(CONFIGS / "certificate.json")
    assert main(["certificate", "--config", config, "--out", str(tmp_path)]) == 0
    assert len(calls) == 1
    got = (tmp_path / "certificate.csv").read_bytes()
    assert got == (GOLDEN / "certificate.certificate.csv").read_bytes()


@pytest.mark.xfail(strict=True, reason="the decay gate passes a wrong expansion (ROADMAP item 1)")
def test_verify_rejects_a_scaled_first_term(tmp_path, monkeypatch, capsys):
    # riccati with u_1 scaled by 1.5: y - S_1 then decays like t^-1, not
    # like u_2 = 2 t^-2, yet the N=1 fit (exponent 0.9995) clears its
    # target of 0.90
    expand = cli.expand

    def tampered(spec):
        expansion = expand(spec)
        first = expansion.orders[0]
        first = dataclasses.replace(first, term=first.term.scale(1.5))
        return dataclasses.replace(expansion, orders=(first,) + expansion.orders[1:])

    monkeypatch.setattr(cli, "expand", tampered)
    config = str(CONFIGS / "riccati.json")
    code = main(["verify", "--config", config, "--order", "1", "--out", str(tmp_path)])
    capsys.readouterr()
    assert code == 1


def test_verify_order_option_overrides_the_config(tmp_path, capsys):
    # an explicit --order wins over the config's order in both directions,
    # including a config that asks for order 0
    cfg = json.loads((CONFIGS / "riccati.json").read_text())
    cfg["verification"]["t_span"] = [10.0, 200.0]
    for config_order, option, want in ((0, "2", [1, 2]), (2, "0", [0]), (0, None, [0])):
        cfg["expansion"]["order"] = config_order
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cfg))
        extra = [] if option is None else ["--order", option]
        code = main(["verify", "--config", str(path), "--out", str(tmp_path / "out")] + extra)
        verdicts, _, _ = _verify_results(capsys.readouterr().out)
        assert code == 0
        assert [n for n, _ in verdicts] == want, (config_order, option)


def test_verify_of_an_order_whose_remainder_sits_at_the_noise_floor_fails(tmp_path, capsys):
    # riccati at order 12: from N=4 on, |y - S_N| in the default window lies
    # below fit_decay's noise floor, so there is no decay to measure.  Each
    # such N fails with its own line, and both output files are written.
    config = str(CONFIGS / "riccati.json")
    code = main(["verify", "--config", config, "--order", "12", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 1
    verdicts, _, _ = _verify_results(out)
    assert verdicts == [(1, "PASS"), (2, "PASS"), (3, "PASS")]
    sparse = [
        f"N={n}: no exponent (fewer than 3 usable samples in the fit window) "
        for n in range(4, 13)
    ]
    lines = out.splitlines()[-9:]
    assert [line[: len(want)] for line, want in zip(lines, sparse)] == sparse
    assert all(line.endswith(" FAIL") for line in lines)
    report = (tmp_path / "verify.txt").read_text().splitlines()
    assert report == out.splitlines()
    header = (tmp_path / "remainders.csv").read_text().splitlines()[0]
    assert header == "t," + ",".join(f"remainder_N{n}" for n in range(1, 13))


def test_negative_order_option_names_the_option(tmp_path, capsys):
    # the bad value came from the command line, not from expansion.order
    config = str(CONFIGS / "riccati.json")
    assert main(["expand", "--config", config, "--order", "-1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err == "validation error: --order: expected an integer >= 0\n"
    cfg = json.loads((CONFIGS / "riccati.json").read_text())
    cfg["expansion"]["order"] = -1
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["expand", "--config", str(path), "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert err == "validation error: expansion.order: expected an integer >= 0\n"


def _verify_inputs(config: Path, order: int | None = None):
    """The problem, its expansion and verify's keyword arguments, as
    cmd_verify builds them from a config and an --order override."""
    cfg = json.loads(config.read_text())
    spec = cli.build_problem(cfg, order)
    return spec, cli.expand(spec), cli._verify_options(cfg, spec, order)


# config, --order, per-N verdicts, thresholds, and the kernel order with its
# constants (within the golden test's 5e-5)
VERIFY_RESULTS = {
    "riccati": (None, [True, True], [0.9, 1.9], None),
    "resonant": (None, [True, True], [0.9, 1.9], (2, [-1.70803])),
    # from N=4 on the remainder sits below the noise floor: no fit, FAIL
    "riccati-12": (12, [True] * 3 + [False] * 9, [k - 0.1 for k in range(1, 13)], None),
}


@pytest.mark.parametrize("case", list(VERIFY_RESULTS))
def test_verify_result_holds_every_verdict(case):
    order, passed, thresholds, kernel = VERIFY_RESULTS[case]
    spec, expansion, options = _verify_inputs(CONFIGS / f"{case.split('-')[0]}.json", order)
    result = cli.verify(spec, expansion, **options)
    n_values = tuple(range(1, len(passed) + 1))
    assert result.orders == n_values
    assert result.passed == tuple(passed)
    assert result.threshold == pytest.approx(thresholds, abs=1e-12)
    assert [fit is not None for fit in result.fit] == [n <= 3 for n in n_values]
    for fit, threshold, ok in zip(result.fit, result.threshold, result.passed):
        assert fit is None or (fit.exponent >= threshold) == ok
    assert result.remainders.shape == (len(n_values), len(result.grid))
    assert result.meta["steps"] > 0
    if kernel is None:
        assert result.kernel is None
    else:
        k, coeffs = result.kernel
        assert k == kernel[0]
        assert np.abs(coeffs - kernel[1]).max() <= 5e-5


def test_cmd_verify_only_prints_and_writes_the_result(tmp_path, monkeypatch, capsys):
    result = VerifyResult(
        grid=np.array([1.0, 2.0, 3.0]),
        orders=(1, 2),
        remainders=np.array([[0.5, 0.25, 0.125], [0.1, 0.01, 0.001]]),
        threshold=(0.9, 1.9),
        fit=(DecayFit(exponent=2.0, r_squared=0.999, window=(2.0, 3.0)), None),
        passed=(True, False),
        kernel=(1, np.array([0.5 - 0.25j])),
        meta={},
    )
    monkeypatch.setattr(cli, "verify", lambda spec, expansion, **options: result)

    def refuse(*args, **kwargs):
        raise AssertionError("cmd_verify computed")

    for name in ("integrate", "fit_kernel_constants", "remainder_series", "fit_decay"):
        monkeypatch.setattr(cli, name, refuse)
    config = str(CONFIGS / "riccati.json")
    assert main(["verify", "--config", config, "--out", str(tmp_path)]) == 1
    report = (
        "N=1: exponent=2.000000 target>=0.900000 R2=0.99900000 window=[2,3] PASS\n"
        "N=2: no exponent (fewer than 3 usable samples in the fit window) "
        "target>=1.900000 FAIL\n"
    )
    kernel = "fitted 1 kernel constant(s) at order 1: (0.5-0.25i)\n"
    assert capsys.readouterr().out == kernel + report
    assert (tmp_path / "verify.txt").read_text() == report
    assert (tmp_path / "remainders.csv").read_text() == (
        "t,remainder_N1,remainder_N2\n1,0.5,0.10000000000000001\n2,0.25,0.01\n3,0.125,0.001\n"
    )


@pytest.mark.xfail(
    strict=True,
    reason="fit_decay regresses log|y - S_N| on t alone, with no t^d prefactor "
    "(ROADMAP item 1, the fit-model step)",
)
def test_verify_of_the_jordan_solution_itself_passes():
    # u_1 = (r_0 + r_1 t + r_2 t^2) e^-t: the built term has 3 rows.  Over
    # the fit window [4, 10] the t^2 factor pulls the slope of log|y| to
    # about 1 - 2/t, and N=0 fits 0.682 against a threshold of 0.90.
    spec, expansion, options = _verify_inputs(CONFIGS / "jordan_resonant.json", 0)
    assert len(expansion.orders[0].term.terms[-1 + 0j]) == 3
    result = cli.verify(spec, expansion, **options)
    assert result.passed == (True,)


def test_verify_of_n_zero_alone_fits_no_kernel_constants(monkeypatch):
    # fit_resonant's order-1 constants enter S_N for N >= 1 only, and
    # --order 0 checks N = 0 alone, so nothing fits or prints them
    spec, expansion, options = _verify_inputs(CONFIGS / "jordan_resonant.json", 0)
    assert options["fit_resonant"][0] == 1 and options["orders"] == [0]

    def refuse(*args, **kwargs):
        raise AssertionError("fit_kernel_constants ran")

    monkeypatch.setattr(cli, "fit_kernel_constants", refuse)
    result = cli.verify(spec, expansion, **options)
    assert result.kernel is None
    assert result.orders == (0,)


@pytest.mark.xfail(strict=True, reason="the decay gate passes a wrong expansion (ROADMAP item 1)")
def test_verify_rejects_a_second_term_off_by_one_part_in_a_thousand(tmp_path):
    # riccati on [10, 1000] with u_2 scaled by 1.001: N=2 still fits an
    # exponent of 3.25 against its threshold of 1.90, because u_3 = 8 t^-3
    # outweighs 0.001 u_2 on this window
    spec, expansion, options = _verify_inputs(_riccati_t1000(tmp_path), 2)
    first, second = expansion.orders
    second = dataclasses.replace(second, term=second.term.scale(1.001))
    tampered = dataclasses.replace(expansion, orders=(first, second))
    result = cli.verify(spec, tampered, **options)
    assert result.passed == (True, False)


# The parser's defaults as the module docstring states them: a config without
# these keys runs byte for byte as the same config with them written out.
WRITTEN_DEFAULTS = {
    "riccati": {
        "expansion.order": 4,
        "verification.rel_tol": 1e-10,
        "verification.abs_tol": 1e-12,
        "verification.margin": 0.1,
        "verification.grid": {"kind": "geometric", "count": 200},
    },
    "certificate": {"certificate.samples": 1024},
}


@pytest.mark.filterwarnings("ignore:the remainder analysis:RuntimeWarning")
@pytest.mark.parametrize(
    "name,command",
    [("riccati", c) for c in ("expand", "verify", "realify")] + [("certificate", "certificate")],
)
def test_a_config_without_the_defaulted_keys_runs_as_one_with_them(name, command, tmp_path, capsys):
    runs = []
    for label in ("omitted", "written"):
        cfg = json.loads((CONFIGS / f"{name}.json").read_text())
        for field, value in WRITTEN_DEFAULTS[name].items():
            section, key = field.split(".")
            cfg[section].pop(key, None)
            if label == "written":
                _set(field, value)(cfg)
        path = tmp_path / f"{label}.json"
        path.write_text(json.dumps(cfg))
        out = tmp_path / label
        code = main([command, "--config", str(path), "--out", str(out)])
        captured = capsys.readouterr()
        files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
        runs.append((code, captured.out.replace(str(out), "OUT"), captured.err, files))
    omitted, written = runs
    assert omitted[3], omitted
    assert omitted == written


# Modules a fresh interpreter must not load, per run: the power/log path
# and the certificate load no scipy at all; the exponential resolvent
# imports scipy.linalg, but nothing may pull in scipy.integrate (about
# 19 MB of peak RSS; the integrator is rk45.py).
IMPORT_CASES = {
    "import": (None, None, "scipy"),
    "expand-riccati": ("expand", "riccati", "scipy"),
    "expand-oscillatory_log": ("expand", "oscillatory_log", "scipy"),
    "realify-riccati": ("realify", "riccati", "scipy"),
    "realify-oscillatory_log": ("realify", "oscillatory_log", "scipy"),
    "verify-riccati_t1000": ("verify", "riccati_t1000", "scipy"),
    "certificate": ("certificate", "certificate", "scipy"),
    "verify-resonant": ("verify", "resonant", "scipy.integrate"),
}


@pytest.mark.parametrize("name", list(IMPORT_CASES))
def test_run_does_not_import(name, tmp_path):
    command, config, forbidden = IMPORT_CASES[name]
    script = "import sys\nimport odexpand\n"
    if command is not None:
        path = _riccati_t1000(tmp_path) if config == "riccati_t1000" else CONFIGS / f"{config}.json"
        script += (
            "from odexpand.cli import main\n"
            f"code = main([{command!r}, '--config', {str(path)!r}, '--out', {str(tmp_path)!r}])\n"
            "assert code == 0, code\n"
        )
    script += (
        f"loaded = [m for m in sys.modules if m == {forbidden!r} or m.startswith({forbidden + '.'!r})]\n"
        "assert not loaded, loaded\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    proc = subprocess.run(
        [sys.executable, "-W", "ignore", "-c", script], env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
