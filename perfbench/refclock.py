"""A reference clock that takes the machine's own speed out of the timings.

On a shared host the same job's wall time drifts by up to half within minutes
while its CPU time stays equal to its wall time: the virtual CPU itself runs
slower when neighbours are busy.  A fixed reference kernel, run between jobs
and timed as they are, slows down by nearly the same factor.  A run therefore
reports its times in reference seconds: one reference second is the time of
``1 / REF_S`` kernel calls, so a job's reference time is its wall time times
``REF_S / mean kernel time`` over the same run.

The kernel is a fixed loop of ``Fraction`` products and sums, the kind of
work the program's hot path does (``CycNum`` keeps its coefficients as
``Fraction`` objects).  It imports nothing from the package under test, so no change
to the program can move it.
"""

from __future__ import annotations

import statistics
import time
from fractions import Fraction

# Nominal time of one kernel call.  It only sets the unit: 1 reference second
# is the time of 2000 kernel calls, about the kernel's speed on the machine in
# perfbench/README.md when nothing else runs on its host.
REF_S = 5e-4


def kernel():
    """The same 119 products and sums of small fractions on every call."""
    acc = Fraction(0)
    for i in range(1, 120):
        acc += Fraction(i, i + 1) * Fraction(i + 2, 3)
    return acc


class RefClock:
    """Times kernel calls so that they take ``share`` of the measured time.

    ``keep_up(t)`` is called after each measured interval of ``t`` seconds
    and runs the kernel until the kernel time reaches ``share`` of all the
    measured time so far, at least once.  The samples are thus spread over
    the run in proportion to the time they correct."""

    def __init__(self, share):
        self.share = share
        self.measured = 0.0
        self.spent = 0.0
        self.samples = []

    def keep_up(self, seconds):
        self.measured += seconds
        while True:
            t0 = time.perf_counter()
            kernel()
            dt = time.perf_counter() - t0
            self.samples.append(dt)
            self.spent += dt
            if self.spent >= self.share * self.measured:
                return

    def mean_s(self):
        return statistics.fmean(self.samples)

    def scale(self):
        """Reference seconds per wall second over the samples so far."""
        return REF_S / self.mean_s()
