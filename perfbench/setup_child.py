"""One set-up probe in a fresh interpreter.

Imports the package, loads the bundled profile and runs the workload's
warm-up task (the first task of pass 0), then prints one JSON line of perf_counter marks (a
system-wide monotonic clock on Linux, so the parent can place them
between its own spawn and exit times).

    python3 perfbench/setup_child.py WORKLOAD SEED TMPDIR   (PYTHONPATH=src)
"""

from time import perf_counter

t_start = perf_counter()
import numpy  # noqa: E402,F401

t_numpy = perf_counter()
import crossbar_margin.cli  # noqa: E402,F401
from crossbar_margin import profile_io  # noqa: E402

t_package = perf_counter()
profile = profile_io.load_bundled_profile()
t_profile = perf_counter()

import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import workloads  # noqa: E402

ctx = workloads.make_context(Path(sys.argv[3]), profile)
warmup = workloads.build(sys.argv[1], ctx, int(sys.argv[2]), 0)[0]
error = warmup.check(warmup.run())
t_done = perf_counter()
print(json.dumps({
    "start": t_start,
    "numpy": t_numpy,
    "package": t_package,
    "profile": t_profile,
    "done": t_done,
    "error": error,
}))
