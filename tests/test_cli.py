"""End-to-end CLI runs on the shipped configs.

``expand`` output is compared with ``golden/<config>.expansion.json``.
Record structure and term keys must match exactly; coefficients must
agree within 1e-13 of the largest coefficient of their order.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from odexpand import cli
from odexpand.cli import main

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
            if field not in ("terms", "kernel", "kernel_coeffs"):
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


@pytest.mark.parametrize("name", ["certificate", "oscillatory_log", "resonant", "riccati"])
def test_expand_matches_golden(name, tmp_path, capsys):
    code = main(["expand", "--config", str(CONFIGS / f"{name}.json"), "--out", str(tmp_path)])
    assert code == 0, capsys.readouterr().err
    got = json.loads((tmp_path / "expansion.json").read_text())
    want = json.loads((GOLDEN / f"{name}.expansion.json").read_text())
    _assert_matches_golden(got, want)


def test_golden_comparison_rejects_a_perturbed_coefficient():
    want = json.loads((GOLDEN / "riccati.expansion.json").read_text())
    got = json.loads(json.dumps(want))
    xi = got["orders"][1]["terms"][0]["xi"][0]
    xi[0] += 1e-10 * max(1.0, abs(xi[0]))
    with pytest.raises(AssertionError):
        _assert_matches_golden(got, want)


@pytest.mark.parametrize("name", ["riccati", "oscillatory_log", "resonant", "certificate"])
def test_realify_exits_zero(name, tmp_path):
    config = str(CONFIGS / f"{name}.json")
    assert main(["realify", "--config", config, "--out", str(tmp_path)]) == 0
    residue = (tmp_path / "real_terms.txt").read_text().splitlines()[-1]
    assert float(residue.split(",")[1]) <= 1e-12


def test_exponential_realify_keeps_the_decay(tmp_path, capsys):
    # y' = -y + y^2 + e^{-t} is resonant at rate 1: its first term t e^{-t}
    # keeps its decay factor in the real form.
    config = str(CONFIGS / "certificate.json")
    assert main(["realify", "--config", config, "--out", str(tmp_path)]) == 0
    assert "rate        1   1·e^(-1t)·t\n" in capsys.readouterr().out


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
    cfg = json.loads((CONFIGS / "riccati.json").read_text())
    cfg.setdefault("expansion", {})["ladder_cutoff"] = 4.0
    path = tmp_path / "config.json"
    path.write_text(json.dumps(cfg))
    assert main(["expand", "--config", str(path), "--out", str(tmp_path)]) == 2
    assert "expansion.ladder_cutoff: unknown field" in capsys.readouterr().err
