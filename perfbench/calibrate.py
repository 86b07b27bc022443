"""Machine-speed reference for normalising in-process timings.

On a shared virtual machine the CPU speed seen by one process drifts over
minutes (neighbouring tenants share caches, memory bandwidth and clock),
even when time is counted as CPU time: on a 2-core x86-64 VM a fixed loop
took 3.8 to 6.2 ms within five minutes.  The in-process worker therefore
measures the CPU time of this fixed pure-Python loop before every op, and
run.py scales each op CPU time of ``profile`` and ``sweep`` by
``REFERENCE_MS / median(loop times around it)``: they are reported in
"reference-speed" milliseconds.  Over those five minutes the CPU time of
``verify --suite full``, a ``commute`` report and a 10001-point density
varied 21% (coefficient of variation of medians of ten); scaled, 6-7%.
The CPU time of set-up, ``cold`` ops and imports (process start, library
loading) did not follow the loop, so those stay raw.  The unscaled values
and the factor are in the detail line.
"""

from __future__ import annotations

import math
import time

# A typical loop time on a 2-core x86-64 VM (Python 3.11); only its being
# fixed matters, since runs are compared under the same benchmark code.
REFERENCE_MS = 4.5
_INT_ROUNDS = 30000
_FLOAT_ROUNDS = 15000


def sample_ms() -> float:
    """CPU time of one pass of the fixed loop (integer, then float work)."""
    start = time.process_time_ns()
    acc = 0
    for i in range(_INT_ROUNDS):
        acc += i * i % 7
    x = 0.0
    for i in range(1, _FLOAT_ROUNDS):
        x += math.sin(i * 1e-3) / i
    elapsed = time.process_time_ns() - start
    if acc != 59999 or not 1.6 < x < 1.7:
        raise AssertionError("calibration loop gave a wrong sum")
    return elapsed / 1e6
