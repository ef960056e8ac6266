"""Set-up time of one CLI run, measured inside a fresh interpreter.

Usage: python3 -I bench/setup_probe.py SRC_DIR CONFIG

Prints the seconds from just before ``import odexpand`` until
``cli.load_config`` and ``cli.build_problem`` return on CONFIG.
Interpreter start-up happens before the clock starts.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
from odexpand import cli  # noqa: E402

cli.build_problem(cli.load_config(sys.argv[2]))
print(repr(time.perf_counter() - t0))
