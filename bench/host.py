"""Host speed, measured around every timed span.

On a shared host the CPU's speed swings by up to a factor of two within
seconds as other tenants load the same cores, and a fixed pure-Python
kernel slows by the same factor as the ops.  Each timed span is bracketed by
kernel runs, and its time is scaled by REFERENCE_S over the mean of the two
kernel times: the span's time on a host where the kernel takes REFERENCE_S.
This removes most of the drift between runs that a raw wall time carries.
The kernel runs with the cyclic collector off, so its time does not depend
on the heap the program under test left behind.  Ops that run in child
processes are bracketed by a bare interpreter's start instead.
"""

from __future__ import annotations

import gc
import subprocess
import sys
import time
from fractions import Fraction

REFERENCE_S = 0.002
PROCESS_REFERENCE_S = 0.06
STEPS = 800


def kernel_s() -> float:
    """Seconds one run of the fixed kernel takes on the host now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        total = Fraction(0)
        for i in range(1, STEPS):
            total += Fraction(1, i % 97 + 1)
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()


def process_start_s(env: dict[str, str]) -> float:
    """Seconds a bare interpreter takes to start and exit on the host now.

    Ops that run in child processes are scaled by this instead: they spend
    much of their time starting a process, which slows less than pure Python
    when the host is loaded, so the Fraction kernel over-corrects them.
    """
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", "pass"], env=env,
                   capture_output=True, check=True, timeout=60)
    return time.perf_counter() - start


class Speed:
    """Scale factors for consecutive timed spans, from the kernel runs
    before and after each.  `env` selects the process-start kernel, run
    with that environment, in place of the Fraction kernel."""

    def __init__(self, env: dict[str, str] | None = None) -> None:
        if env is None:
            self.kernel, self.reference = kernel_s, REFERENCE_S
        else:
            self.kernel = lambda: process_start_s(env)
            self.reference = PROCESS_REFERENCE_S
        self.kernel()  # the first run also pays for warming up
        self.kernels = [self.kernel()]

    def scale(self) -> float:
        """Call right after a timed span: the factor to scale it by."""
        self.kernels.append(self.kernel())
        return self.reference / ((self.kernels[-2] + self.kernels[-1]) / 2)
