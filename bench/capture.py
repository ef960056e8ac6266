"""Capture the reference outputs of every pool problem.

Usage, from the repository root, at the commit whose outputs are the
reference:

    python3 bench/capture.py [WORKLOAD ...]

Writes bench/reference/<workload>.json.gz: for each problem of the
workload's pool, the summary (see check.summarize) of each of its ops.
The files are byte-reproducible: sorted keys and a zero gzip timestamp.
"""

from __future__ import annotations

import collections
import gzip
import json
import sys
import tempfile
from pathlib import Path

import check
import run
import workloads


def capture(workload: str, cli, scratch: Path) -> dict:
    out = {}
    exits = collections.Counter()
    for index in range(workloads.POOL_SIZE):
        prob = workloads.problem(workload, index)
        config = scratch / f"{prob.name}.json"
        config.write_text(prob.config_text())
        out_root = scratch / "out"
        results, stdouts = run.run_pass(cli, [prob], {prob.name: config}, out_root)
        out[prob.name] = {
            r.command: check.summarize(r.command, r.exit_code, out_root / prob.name / r.command, s)
            for r, s in zip(results, stdouts)
        }
        exits.update(f"{r.command}:exit{r.exit_code}" for r in results)
    print(f"{workload}: {dict(sorted(exits.items()))}")
    return out


def main(names) -> int:
    sys.path.insert(0, str(run.SRC))
    from odexpand import cli

    target = run.BENCH / "reference"
    target.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=run.ROOT) as tmp:
        for workload in names or workloads.WORKLOADS:
            data = json.dumps(capture(workload, cli, Path(tmp)), sort_keys=True)
            with open(target / f"{workload}.json.gz", "wb") as raw:
                with gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
                    fh.write(data.encode("utf-8"))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
