"""Time, in this fresh process, importing bogolon and resolving --preset paper.

Prints the raw seconds and the same time in reference seconds, scaled by
the host-speed kernel timed in this process just before and after (see
hostspeed).  Started by run.py with PYTHONPATH pointing at ./src.
"""

from time import perf_counter

import hostspeed

before = hostspeed.kernel_s()
start = perf_counter()
from bogolon.cli import build_run_config  # noqa: E402

build_run_config({}, preset=True)
raw = perf_counter() - start
print(raw, raw * hostspeed.scale(before, hostspeed.kernel_s()))
