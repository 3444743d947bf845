"""Calibrated time: measured seconds corrected for the machine's speed.

On a shared virtual machine the same code runs at two speeds that differ by
up to a factor of two, switching every few seconds; CPU time follows wall
time, so process_time does not help.  A fixed pure-Python kernel (a Fraction
zeta sum, the same kind of work the package does) is timed next to every
operation: three times before it, three times after it, and once every
PERIOD_S during it from a SIGALRM handler.  The operation's time, less the
time of the kernels run inside it, is scaled by the mean of
REFERENCE_S / kernel time over those samples.  The result reads as seconds on
a machine on which the kernel takes REFERENCE_S.

The slow state slows the imports of a fresh interpreter by less than it slows
the kernel, so the set-up time is calibrated otherwise: each set-up probe is
paired with IMPORT_PROBE, a fresh interpreter that imports a fixed set of
standard-library modules, and the set-up time is scaled by
IMPORT_REFERENCE_S / that import time.

The kernel is benchmark code and calls nothing of the package, so a change of
the package moves calibrated times exactly as it moves raw times.  It runs
with the garbage collector off, so a large heap held by an operation does not
make the machine look slow.
"""

from __future__ import annotations

import gc
import signal
import statistics
from fractions import Fraction
from time import perf_counter

# Kernel time on the machine the bounds were set on, at its full speed
# (a round figure above the 0.36 to 0.39 ms measured there).
REFERENCE_S = 0.0004
PERIOD_S = 0.02
# Import time of IMPORT_PROBE on the same machine at its full speed.
IMPORT_REFERENCE_S = 0.065
IMPORT_PROBE = """
from time import perf_counter
t0 = perf_counter()
import argparse, dataclasses, email.parser, fractions, http.client, json, logging, unittest
import xml.dom.minidom
print(perf_counter() - t0)
"""
_VALUES = tuple(Fraction(m % 7 + 1, m % 5 + 2) for m in range(32))


def kernel_seconds():
    """Seconds of one run of the kernel: 243 Fraction additions."""
    enabled = gc.isenabled()
    gc.disable()
    t0 = perf_counter()
    for s in range(32):
        acc = Fraction(0)
        t = s
        while True:
            acc += _VALUES[t]
            if t == 0:
                break
            t = (t - 1) & s
    dt = perf_counter() - t0
    if enabled:
        gc.enable()
    return dt


def kernel_median(count):
    return statistics.median(kernel_seconds() for _ in range(count))


class Speedometer:
    """Times callables in raw and calibrated seconds.  Main thread only."""

    def __init__(self):
        self.during = []
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        self.during.append(kernel_seconds())

    def measure(self, fn):
        """(fn(), raw seconds, calibrated seconds)."""
        before = kernel_median(3)
        self.during.clear()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        t0 = perf_counter()
        try:
            result = fn()
        finally:
            raw = perf_counter() - t0
            signal.setitimer(signal.ITIMER_REAL, 0)
        during = list(self.during)
        raw -= sum(during)
        samples = [before, kernel_median(3), *during]
        return result, raw, raw * statistics.fmean(REFERENCE_S / k for k in samples)
