"""Calibration against machine speed.

The benchmark runs on small shared machines whose speed drifts by up to
a factor of two within a minute, and process CPU time drifts with wall
time, so neither clock alone repeats.  A fixed kernel that shares no
code with trilocal runs immediately before and after every timed
operation.  The operation's wall time is multiplied by the kernel's
reference duration divided by its measured duration, which expresses it
in units of a machine running the kernel at the reference speed.

Two kernels exist.  LOOP, a plain dict and int loop, calibrates work done
in this process.  SPAWN, the start of a bare interpreter that imports
nothing, calibrates work done in fresh processes: their start-up cost
drifts with the operating system, which the loop does not follow.
"""

from __future__ import annotations

import os
import statistics
import subprocess
import sys
import time

KERNEL_ITERATIONS = 3000


def loop():
    # Tuple keys and 160-bit integers: on the reference machine this loop
    # followed trilocal's slow-downs more closely than a loop over small
    # ints (calibrated 20-second medians within 3% instead of 6%).
    table = {}
    acc = 1
    for i in range(KERNEL_ITERATIONS):
        key = ((i * 7919) & 4095, i & 7)
        acc = (acc * 3 + table.get(key, i)) % (1 << 160)
        table[key] = acc
    return acc


def spawn():
    subprocess.run([sys.executable, "-I", "-S", "-c", "pass"], stdin=subprocess.DEVNULL,
                   stdout=subprocess.DEVNULL, check=True)


class Kernel:
    """A fixed task, its reference duration, and how often it runs on each side of an operation."""

    def __init__(self, task, reference_s, runs):
        self.task = task
        self.reference_s = reference_s
        self.runs = runs

    def timed(self):
        start = time.perf_counter()
        self.task()
        return time.perf_counter() - start

    def factor(self, times):
        """Calibration factor from measured kernel times: their median is used,
        so that one run cut short by the scheduler does not rescale an operation."""
        return self.reference_s / statistics.median(times)


# Reference durations are typical of the reference machine (2-core x86-64
# container, CPython 3.11.7): the loop measured 1.4 to 2.9 ms and the
# bare interpreter 10 to 20 ms as the machine drifted.
LOOP = Kernel(loop, 0.0025, runs=2)
SPAWN = Kernel(spawn, 0.015, runs=1)


def pin_to_one_cpu():
    """Keep this process, and the children it starts, on one CPU.

    The CPUs of a shared machine run at different speeds at the same
    moment (on the reference machine one ran 1.4 times slower than the
    other), so a kernel timed on one CPU calibrates nothing that ran on
    another.  Where affinity cannot be set the run goes on unpinned.
    """
    try:
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


class Calibrated:
    """Times one block between kernel runs.

    Use as ``with Calibrated(kernel, runs) as c: work()``; the kernel runs
    ``runs`` times immediately before and after the block (default: the
    kernel's own count).  Afterwards ``c.raw_s`` is the wall time of the
    block, ``c.factor`` the calibration factor and ``c.seconds`` the
    calibrated time.
    """

    __slots__ = ("kernel", "runs", "times", "start", "raw_s")

    def __init__(self, kernel=LOOP, runs=None):
        self.kernel = kernel
        self.runs = runs or kernel.runs

    def __enter__(self):
        self.times = [self.kernel.timed() for _ in range(self.runs)]
        self.start = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.raw_s = time.perf_counter() - self.start
        self.times += [self.kernel.timed() for _ in range(self.runs)]
        return False

    @property
    def factor(self):
        return self.kernel.factor(self.times)

    @property
    def seconds(self):
        return self.raw_s * self.factor
