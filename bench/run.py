"""Benchmark of the odexpand CLI on seeded problem families.

Usage, from the repository root:

    python3 bench/run.py --workload power-expand --seed 1 --seconds 25 --trace 0

One op is one CLI subcommand on one generated config, run in this process
through ``odexpand.cli.main``: one client, one op at a time, closed loop.
A pass runs every op of every problem the seed picked.  After a warm-up,
passes repeat until ``--seconds`` have gone by; every op's output is
checked against ``bench/reference``.

Op times are reported at reference host speed: each is scaled by
CAL_REF_S over the time of a fixed calibration loop run right around it
(see ``calibrate``).  The raw wall times go into the run record.

--trace 0 prints the end-to-end metrics: set-up time (fresh interpreters),
ops per second and median op time, the share of ops that succeeded, and
peak RSS.  --trace 1 alternates untraced and traced passes and prints the
per-layer metrics of the traced ones plus the tracing overhead.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Exit code 2 means the benchmark could not
run (no sources, no reference); nothing is printed on stdout then.
"""

from __future__ import annotations

import argparse
import gzip
import io
import json
import os
import platform
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import check
import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
BUILD = ROOT / ".bench_build"

SETUP_REPEATS = 9
# Calibration loop time that defines reference host speed (roughly its
# time on the 2-vCPU host of the baseline when nothing else runs there).
CAL_REF_S = 0.02
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

E2E_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "op_s_p50": "s",
    "ok_frac": "ratio",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here; reported on stderr with exit code 2."""


@dataclass
class OpResult:
    problem: str
    command: str
    exit_code: int
    seconds: float
    cal: float  # calibration seconds around the op
    status: str = ""
    reason: str = ""

    @property
    def key(self) -> tuple[str, str]:
        return (self.problem, self.command)

    @property
    def scaled(self) -> float:
        return self.seconds * CAL_REF_S / self.cal


def calibrate() -> float:
    """Seconds of a fixed loop that never touches odexpand.

    Tuple-keyed dict updates, complex arithmetic and 3x3 numpy products:
    interpreter-bound work like the program's.  On a shared host both
    slow down together, so their ratio stays put (measured over 25 s
    windows on a shared 2-vCPU VM: op time moved +-9%, op time over
    calibration time +-2.5%).
    """
    t0 = time.perf_counter()
    acc: dict = {}
    for i in range(20000):
        k = ((i % 97) * 1e-3, (i * 7) % 13)
        acc[k] = acc.get(k, 0j) + complex(i, -i) * 1e-3
    v = np.zeros(3, dtype=complex)
    m = np.eye(3, dtype=complex) * 0.5
    for _ in range(2000):
        v = m @ (v + 1.0)
    return time.perf_counter() - t0


def load_reference(workload: str) -> dict:
    path = BENCH / "reference" / f"{workload}.json.gz"
    if not path.is_file():
        raise BenchError(f"no reference outputs at {path}")
    with gzip.open(path, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def measure_setup(config: Path) -> list[float]:
    """Set-up seconds of SETUP_REPEATS fresh interpreters on one config.

    Left unscaled: import time follows the calibration loop too loosely
    (on a shared 2-vCPU VM, scaling widened the spread between runs from
    0.14 to 0.22).
    """
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-I", str(BENCH / "setup_probe.py"), str(SRC), str(config)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            raise BenchError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return times


def run_pass(cli, problems, configs, out_root: Path, tracer=None):
    """Run every op once; returns (results, captured stdout of each op)."""
    shutil.rmtree(out_root, ignore_errors=True)
    results, stdouts = [], []
    cal = calibrate()
    for prob in problems:
        for op in prob.ops:
            out_dir = out_root / prob.name / op.command
            argv = [op.command, "--config", str(configs[prob.name]), "--out", str(out_dir)]
            sink = io.StringIO()
            span = tracer.span(f"op.{op.command}") if tracer else nullcontext()
            t0 = time.perf_counter()
            with redirect_stdout(sink), redirect_stderr(io.StringIO()), span:
                code = cli.main(argv + list(op.argv))
            seconds = time.perf_counter() - t0
            after = calibrate()
            results.append(OpResult(prob.name, op.command, code, seconds, (cal + after) / 2))
            stdouts.append(sink.getvalue())
            cal = after
    return results, stdouts


def check_pass(reference, results, stdouts, out_root: Path) -> None:
    for res, stdout in zip(results, stdouts):
        ref = reference[res.problem][res.command]
        try:
            got = check.summarize(res.command, res.exit_code, out_root / res.problem / res.command, stdout)
        except (OSError, ValueError, KeyError, IndexError) as e:
            res.status, res.reason = check.WRONG, f"unreadable output: {e}"
            continue
        res.status, res.reason = check.compare(res.command, ref, got)


def op_times(passes, scaled: bool = True) -> dict[tuple[str, str], float]:
    """Each op's median time over the passes, scaled or raw."""
    samples: dict[tuple[str, str], list[float]] = {}
    for res in passes:
        for r in res:
            samples.setdefault(r.key, []).append(r.scaled if scaled else r.seconds)
    return {k: statistics.median(v) for k, v in samples.items()}


def throughput(passes, scaled: bool = True) -> tuple[float, float]:
    """(successful ops per second of a pass, median successful op time).

    A pass lasts the sum of its ops' median times; failed ops count there.
    """
    times = op_times(passes, scaled)
    ok = [r for res in passes for r in res if r.status == check.OK]
    ok_keys = {r.key for r in ok} or set(times)
    ops_per_s = len(ok) / len(passes) / sum(times.values())
    return ops_per_s, statistics.median(times[k] for k in ok_keys)


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def tier1_test_count() -> int | None:
    env = dict(os.environ, PYTHONPATH=str(SRC))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", "tests"],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    m = re.search(r"(\d+) tests? collected", proc.stdout)
    return int(m.group(1)) if m else None


def run_record(args, threads_env, problems) -> dict:
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "problems": [p.name for p in problems],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas_thread_env": {k: os.environ.get(k) for k in BLAS_ENV},
        "odexpand_threads_found": threads_env,
        "src_lines": {
            p.name: len(p.read_text().splitlines()) for p in sorted((SRC / "odexpand").glob("*.py"))
        },
        "tier1_tests": tier1_test_count() if args.trace else None,
        "cal_ref_s": CAL_REF_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        return bench(args)
    except BenchError as e:
        print(f"bench: {e}", file=sys.stderr)
        return 2


def bench(args) -> int:
    if not (SRC / "odexpand" / "__init__.py").is_file():
        raise BenchError(f"no odexpand sources under {SRC}")
    if args.workload not in workloads.WORKLOADS:
        raise BenchError(f"unknown workload {args.workload!r}; choose from {workloads.WORKLOADS}")
    # Threaded remainders measured slower; the benchmark runs the default.
    threads_env = os.environ.pop("ODEXPAND_THREADS", None)
    reference = load_reference(args.workload)
    problems = workloads.run_problems(args.workload, args.seed)
    work = BUILD / "work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        return _bench(args, problems, reference, work, threads_env)
    finally:
        shutil.rmtree(work, ignore_errors=True)


def _bench(args, problems, reference, work, threads_env) -> int:
    configs = {}
    for prob in problems:
        configs[prob.name] = work / "configs" / f"{prob.name}.json"
        configs[prob.name].parent.mkdir(parents=True, exist_ok=True)
        configs[prob.name].write_text(prob.config_text())
    setup = [] if args.trace else measure_setup(configs[problems[0].name])

    sys.path.insert(0, str(SRC))
    from odexpand import cli

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise BenchError(f"imported odexpand from {cli.__file__}, not from {SRC}")
    out_root = work / "out"
    run_pass(cli, problems[:1], configs, out_root)  # warm-up: lazy imports, caches

    untraced, traced, layer_runs, first_tracer = [], [], [], None
    start = time.perf_counter()
    while not (untraced and (traced or not args.trace)) or time.perf_counter() - start < args.seconds:
        res, outs = run_pass(cli, problems, configs, out_root)
        check_pass(reference, res, outs, out_root)
        untraced.append(res)
        if args.trace:
            tracer = spans.Tracer()
            with spans.installed(tracer):
                res, outs = run_pass(cli, problems, configs, out_root, tracer)
            check_pass(reference, res, outs, out_root)
            traced.append(res)
            # Per-layer times go to reference speed like the op times.
            factor = CAL_REF_S / statistics.median(r.cal for r in res)
            layer = spans.layer_metrics(tracer, dir_bytes(out_root))
            layer_runs.append({n: v * factor if spans.unit(n) == "s" else v for n, v in layer.items()})
            first_tracer = first_tracer or tracer

    results = [r for res in untraced + traced for r in res]
    wrong = [r for r in results if r.status == check.WRONG]
    for r in wrong[:5]:
        print(f"WRONG {r.problem} {r.command}: {r.reason}", file=sys.stderr)
    measured = [r for res in untraced for r in res]
    ok = [r for r in measured if r.status == check.OK]
    record = run_record(args, threads_env, problems)
    record["passes"] = len(untraced)
    record["cal_s_median"] = statistics.median(r.cal for r in results)
    record["raw_ops_per_s"], record["raw_op_s_p50"] = throughput(untraced, scaled=False)

    if args.trace:
        metrics = {n: statistics.median(run[n] for run in layer_runs) for n in layer_runs[0]}
        metrics["trace.overhead_s"] = sum(op_times(traced).values()) - sum(op_times(untraced).values())
        first_tracer.save(BUILD / "trace" / f"{args.workload}-seed{args.seed}.npz")
        units = {name: spans.unit(name) for name in metrics}
    else:
        ops_per_s, op_s_p50 = throughput(untraced)
        metrics = {
            "setup_s": statistics.median(setup),
            "ops_per_s": ops_per_s,
            "op_s_p50": op_s_p50,
            "ok_frac": len(ok) / len(measured),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record["setup_s"] = setup
        units = E2E_UNITS

    failed = len(measured) - len(ok)
    print(json.dumps({"run_record": record}))
    print(
        f"{args.workload} seed={args.seed}: {len(untraced)} passes, {len(measured)} ops, "
        f"failed_frac={failed / len(measured):.4f} ({failed}/{len(measured)}), "
        f"wrong={len(wrong)}"
    )
    for name, value in metrics.items():
        print(f"  {name:<28} {value:.6g} {units[name]}")
    print(
        json.dumps(
            {
                "correct": not wrong,
                "attempted": len(measured),
                "failed": failed,
                "metrics": {n: {"value": v, "unit": units[n]} for n, v in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
