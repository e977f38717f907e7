"""How fast the shared host runs during a benchmark run.

On a shared virtual machine the interpreter's speed drifts by up to 2x
over seconds, because of other tenants, so raw run-to-run spreads of the
timing metrics reach 10-30%.  A fixed pure-Python kernel that shares no
code with tiersched is timed between operations and tracks that drift.
The end-to-end and per-layer timings are reported at the reference speed:
raw host time divided by the measured slowdown.  That is the run's
time-weighted mean slowdown for the timed loop, and the slowdown taken just
before and after a set-up pass for that pass.  The raw figures and the
slowdowns are kept in each run's record.
"""

from __future__ import annotations

import gc
import statistics
from time import perf_counter

#: Host seconds of one kernel call at the reference speed.
KERNEL_REFERENCE_S = 0.002
#: Least host time between two samples of a run.
EVERY_S = 0.1


def kernel() -> None:
    """Fixed interpreter work: dict updates, float arithmetic, a sort."""
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(6000):
        k = (i * 7919) % 1013
        table[k] = table.get(k, 0.0) + i * 0.5
        acc += table[k] / (k + 1.0)
    sorted(table.items(), key=lambda kv: kv[1])


def kernel_s(runs: int) -> float:
    """Median host seconds of ``runs`` kernel calls, garbage collector off
    so the program's heap does not slow them."""
    times = []
    collecting = gc.isenabled()
    gc.disable()
    try:
        for _ in range(runs):
            t0 = perf_counter()
            kernel()
            times.append(perf_counter() - t0)
    finally:
        if collecting:
            gc.enable()
    return statistics.median(times)


class HostSpeed:
    """Time-weighted mean kernel time of a run, against the reference.

    ``sample()`` runs the kernel when at least ``EVERY_S`` seconds have
    passed since the last sample, and weights it by that interval.  An
    interval of five or more ``EVERY_S`` is sampled by the median of five
    kernel runs, so one interruption does not set the speed of a long
    operation.
    """

    def __init__(self) -> None:
        self.last = perf_counter()
        self.weighted = 0.0
        self.covered = 0.0
        self.samples = 0

    def sample(self) -> None:
        gap = perf_counter() - self.last
        if gap < EVERY_S:
            return
        self.weighted += kernel_s(5 if gap >= 5 * EVERY_S else 1) * gap
        self.covered += gap
        self.samples += 1
        self.last = perf_counter()

    @property
    def slowdown(self) -> float:
        """Mean kernel time over the reference time (1.0 before a sample)."""
        if not self.covered:
            return 1.0
        return self.weighted / self.covered / KERNEL_REFERENCE_S


def slowdown_now() -> float:
    """The host's slowdown right now, from the median of five kernel runs;
    it does not enter any run's mean."""
    return kernel_s(5) / KERNEL_REFERENCE_S
