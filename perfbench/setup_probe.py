"""Time one workload's set-up in a fresh interpreter and print the seconds.

Set-up is importing njordan (and with it numpy) and building every ring,
map and model the workload uses.  ``run.py`` starts this script several
times per run and reports the median, normalized for the machine's speed,
as ``setup_s``.

    python3 perfbench/setup_probe.py <workload>
"""

import time

start = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402

workloads.setup(sys.argv[1])
print(time.perf_counter() - start)
