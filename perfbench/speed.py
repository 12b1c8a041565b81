"""The machine's speed along a run, read from a fixed calibration routine.

The benchmark host is shared.  For seconds to minutes at a time the same
code runs up to twice as slow, and CPU time tracks wall time, so the
process is not waiting: the hardware it shares is contended.  A whole
20-second run can fall in a slow stretch, so no choice of passes or
percentiles inside one run can hide it.

``calibration`` does the package's kind of work with the standard library
only: ``Fraction`` arithmetic, products and gcds of multi-word integers,
and dicts keyed by exponent tuples.  Measured next to a workload op it
slows down nearly in step: over windows of 20 samples the ratio of
op to calibration stayed within +-3% while the op itself varied by 2x.  A
tight integer loop does not track it, so the routine has to resemble the
work.

``Timeline`` runs the routine every ``CAL_EVERY_S`` between the steps of
a pass and turns a raw interval into reference-speed seconds:

    scaled = raw * (CAL_REF_S / c) ** sensitivity

where c is the median calibration time near the interval.  ``CAL_REF_S``
is what the routine takes on a quiet 2.0 GHz Xeon vCPU with Python 3.11,
so reference-speed seconds read as the wall time of a quiet machine of
that kind.  The sensitivity is how strongly the measured work slows down
when the routine does: the slope of log(op time) on log(calibration
time), fitted over 225 pairs per op of an op and the calibration samples
on either side of it, with the calibration time ranging over 3.0-6.0 ms.
Ops run in this process had slopes of 0.75-0.94 (``IN_PROCESS``); a CLI
child, whose time is largely process start-up and file reads, had 0.59
(``CHILD``).  An op whose slope is 0.1 off its class's is still biased
by up to 7% between the quietest and the slowest machine seen.  The
routine is independent of the package, so two commits are scaled by the
same yardstick.
"""

from __future__ import annotations

import statistics
from bisect import bisect_left, bisect_right
from fractions import Fraction
from time import perf_counter

CAL_REF_S = 0.003
IN_PROCESS = 0.85
CHILD = 0.6
CAL_EVERY_S = 0.1
# Calibration samples this close to an interval describe its speed; at
# least ``NEAREST`` samples are used.
WINDOW_S = 0.3
NEAREST = 3


def calibration() -> int:
    """A fixed amount of Fraction, big-integer and dict work."""
    acc = Fraction(0)
    for k in range(1, 481):
        acc += Fraction(k % 13 - 6, k % 17 + 1) * Fraction(k, 7)
    a, b = 3**90 + 1, 7**70 + 3
    g = 0
    for k in range(480):
        a = (a * (k + 3) + b) % (1 << 300)
        g ^= (a * b).bit_length() ^ (a % (b // (k + 2) + 1)).bit_length()
    table: dict[tuple[int, int, int], list[int]] = {}
    for k in range(1600):
        key = (k % 5, k % 7, k % 11)
        table.setdefault(key, []).append(k)
    return acc.numerator % 1000 + g + len(table)


class Timeline:
    """Calibration samples (midpoint, duration) along a run."""

    def __init__(self) -> None:
        self.times: list[float] = []
        self.durations: list[float] = []
        self._last = float("-inf")

    def sample(self) -> None:
        t0 = perf_counter()
        calibration()
        t1 = perf_counter()
        self.times.append((t0 + t1) / 2)
        self.durations.append(t1 - t0)
        self._last = t1

    def maybe(self) -> None:
        """Sample if ``CAL_EVERY_S`` has passed since the last sample."""
        if perf_counter() - self._last >= CAL_EVERY_S:
            self.sample()

    def factor(self, t0: float, t1: float, sensitivity: float = IN_PROCESS) -> float:
        """Reference-speed seconds per raw second over [t0, t1]."""
        times = self.times
        lo = bisect_left(times, t0 - WINDOW_S)
        hi = bisect_right(times, t1 + WINDOW_S)
        while hi - lo < NEAREST and (lo > 0 or hi < len(times)):
            mid = (t0 + t1) / 2
            if hi >= len(times) or (lo > 0 and mid - times[lo - 1] <= times[hi] - mid):
                lo -= 1
            else:
                hi += 1
        return (CAL_REF_S / statistics.median(self.durations[lo:hi])) ** sensitivity

    def scaled(self, t0: float, t1: float, sensitivity: float = IN_PROCESS) -> float:
        """The interval [t0, t1] in reference-speed seconds."""
        return (t1 - t0) * self.factor(t0, t1, sensitivity)

    def overall(self, sensitivity: float = IN_PROCESS) -> float:
        """The run's median factor, for totals that are not intervals."""
        return (CAL_REF_S / statistics.median(self.durations)) ** sensitivity
