"""The benchmark's own tests.

Run from the repository root:

    python3 -m pytest -q bench/check_bench.py

The file name keeps these out of the package's test collection; they
check the benchmark, not the package.
"""

from __future__ import annotations

import copy
import json
import shutil
import subprocess
import sys

import pytest

import check
import run
import spans
import workloads

sys.path.insert(0, str(run.SRC))


@pytest.fixture(scope="module")
def cli():
    from odexpand import cli

    return cli


@pytest.fixture(scope="module")
def reference():
    return {w: run.load_reference(w) for w in workloads.WORKLOADS}


# -- generators --------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    def snapshot(seed):
        return [
            (p.name, p.config_text(), [(op.command, op.argv) for op in p.ops])
            for p in workloads.run_problems(workload, seed)
        ]

    assert snapshot(7) == snapshot(7)
    assert snapshot(7) != snapshot(8)
    assert len({name for name, _, _ in snapshot(7)}) == workloads.PASS_SIZE[workload]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_the_pool(workload, reference):
    ref = reference[workload]
    for index in range(workloads.POOL_SIZE):
        prob = workloads.problem(workload, index)
        assert set(ref[prob.name]) == {op.command for op in prob.ops}


# -- output check ------------------------------------------------------


def _first(reference, workload, command):
    name = workloads.problem(workload, 0).name
    return copy.deepcopy(reference[workload][name][command])


def test_check_accepts_the_reference_itself(reference):
    for workload, ref in reference.items():
        for ops in ref.values():
            for command, summary in ops.items():
                status, reason = check.compare(command, summary, copy.deepcopy(summary))
                assert status in (check.OK, check.KNOWN_FAILURE), reason


@pytest.mark.parametrize("workload", ["power-expand", "exp-resonant"])
def test_check_catches_a_perturbed_coefficient(reference, workload):
    ref = _first(reference, workload, "expand")
    got = copy.deepcopy(ref)
    order = got["expansion"]["orders"][2]
    term = order["terms"][len(order["terms"]) // 2]
    values = term["xi"] if "xi" in term else term["coeffs"][0]
    values[0] = [values[0][0] * (1 + 1e-3) + 1e-300, values[0][1]]
    status, reason = check.compare("expand", ref, got)
    assert status == check.WRONG and "order 3" in reason


def test_check_catches_a_flipped_verdict(reference):
    ref = _first(reference, "verify-long", "verify")
    assert [v for _, _, v in ref["verdicts"]] == ["PASS", "PASS"]
    got = copy.deepcopy(ref)
    got["verdicts"][1][2] = "FAIL"
    assert check.compare("verify", ref, got)[0] == check.WRONG
    got = copy.deepcopy(ref)
    got["verdicts"][0][1] += 2 * check.EXPONENT_ABS
    assert check.compare("verify", ref, got)[0] == check.WRONG


def test_known_failure_and_its_fix(reference):
    ref = _first(reference, "exp-resonant", "realify")
    assert ref == {"exit": 3}
    assert check.compare("realify", ref, {"exit": 3})[0] == check.KNOWN_FAILURE
    assert check.compare("realify", ref, {"exit": 2})[0] == check.WRONG
    assert check.compare("realify", ref, {"exit": 0, "max_imag_residue": 0.0})[0] == check.OK
    assert check.compare("realify", ref, {"exit": 0, "max_imag_residue": 1e-3})[0] == check.WRONG


# -- spans -------------------------------------------------------------


def test_self_time_of_nested_spans():
    tr = spans.Tracer()
    # (name, start, end, parent index)
    for name, start, end, parent in [
        ("root", 0.0, 10.0, -1),
        ("a", 1.0, 4.0, 0),
        ("leaf", 1.5, 2.5, 1),
        ("b", 5.0, 6.0, 0),
        ("leaf", 6.5, 7.0, 0),
    ]:
        tr.name_id.append(tr._id(name))
        tr.start.append(start)
        tr.end.append(end)
        tr.parent.append(parent)
    s = tr.per_name()
    assert s["root"] == {"calls": 1, "total_s": 10.0, "self_s": 10.0 - 3.0 - 1.0 - 0.5}
    assert s["a"]["self_s"] == 2.0
    assert s["b"]["self_s"] == 1.0
    assert s["leaf"] == {"calls": 2, "total_s": 1.5, "self_s": 1.5}
    assert tr.calls_under("leaf", "a") == 1
    assert tr.calls_under("leaf", "root") == 2


def test_installed_restores_every_target():
    before = [spans._resolve(m, p) for _, m, p, _ in spans.TARGETS]
    originals = [o.__dict__[a] if isinstance(o, type) else getattr(o, a) for o, a in before]
    with spans.installed(spans.Tracer()):
        pass
    after = [o.__dict__[a] if isinstance(o, type) else getattr(o, a) for o, a in before]
    assert all(x is y for x, y in zip(originals, after))


@pytest.fixture(scope="module")
def traced_passes(cli, tmp_path_factory):
    """Two traced passes over one pool problem of every workload."""
    out = {}
    for workload in workloads.WORKLOADS:
        prob = workloads.problem(workload, 0)
        work = tmp_path_factory.mktemp(workload)
        config = work / "config.json"
        config.write_text(prob.config_text())
        runs = []
        for _ in range(2):
            tracer = spans.Tracer()
            with spans.installed(tracer):
                run.run_pass(cli, [prob], {prob.name: config}, work / "out", tracer)
            runs.append((tracer, spans.layer_metrics(tracer, run.dir_bytes(work / "out"))))
        out[workload] = runs
    return out


@pytest.mark.parametrize(
    "workload, metrics",
    [
        ("power-expand", ["logpower.build_calls", "logpower.mul_apply_calls", "multilinear.calls", "engine.orders"]),
        ("exp-resonant", ["expsum.mul_apply_calls", "resolvent.resonant_solves", "multilinear.calls", "rk45.steps", "numerics.expm_calls", "resolvent.lu_factors"]),
        ("verify-long", ["rk45.steps", "rk45.rhs_evals", "multilinear.calls", "ladder.eval_calls", "logpower.eval_calls"]),
    ],
)
def test_wrapped_layers_record_work(traced_passes, workload, metrics):
    layer = traced_passes[workload][0][1]
    for name in metrics:
        assert layer[name] > 0, name


def test_every_wrapped_name_is_called(traced_passes):
    called = set()
    for runs in traced_passes.values():
        called |= {name for name, s in runs[0][0].per_name().items() if s["calls"]}
    assert {name for name, _, _, _ in spans.TARGETS} | {"rk45.rhs"} <= called


def test_counts_repeat_exactly(traced_passes):
    for runs in traced_passes.values():
        (_, first), (_, second) = runs
        counts = [n for n in first if spans.unit(n) in ("count", "bytes")]
        assert {n: first[n] for n in counts} == {n: second[n] for n in counts}


# -- BENCHMARK.json and the command line -------------------------------


def test_benchmark_json_lists_the_emitted_metrics(traced_passes):
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"] == ["python3", "bench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.E2E_UNITS
    layer = dict(traced_passes["power-expand"][0][1], **{"trace.overhead_s": 0.0})
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {n: spans.unit(n) for n in layer}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "power-expand", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2 and proc.stdout == ""
    assert "no odexpand sources" in proc.stderr
