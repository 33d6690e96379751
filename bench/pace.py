"""The machine's pace, measured alongside the program, and times at a
fixed reference pace.

The benchmark runs on a few cores shared with other machines, whose speed
changes by up to 2x for tens of seconds at a time: in a slow phase even the
fastest of many 15-ms repetitions takes twice as long.  No statistic of the
program's own times removes that, but the slowdown hits every piece of
code at once.  So while a stretch of the program runs, a timer signal
interrupts it every ``INTERVAL_S`` seconds to run a fixed pure-Python
``kernel`` and record how long the kernel took.  ``Pacer.normalized``
then scales each piece of program time between two kernel runs by
``REFERENCE_S`` over the local median kernel time, and leaves out the
kernel's own time: the result is the time the stretch takes at the
reference pace, the pace of an uncontended core of the machine the
benchmark was tuned on.

Only the standard library is used, so the pacer can time the imports of
the set-up too.
"""

import signal
import statistics
import time
from array import array
from bisect import bisect_right

INTERVAL_S = 0.1     # program time between two kernel runs
SMOOTH = 9           # kernel runs in the local median (about a second)
REFERENCE_S = 0.8e-3  # kernel time on an uncontended core (see README.md)


def kernel(n=7000):
    """A fixed piece of interpreter work: float arithmetic, a list and a
    dict, as in the program's python-float paths."""
    acc = 0.0
    xs = []
    seen = {}
    for i in range(n):
        x = i * 1e-3
        acc = acc * 0.999 + x * x
        xs.append(acc)
        seen[i & 63] = x
    return len(xs) + len(seen)


class Pacer:
    """Runs ``kernel`` every ``INTERVAL_S`` seconds between ``start`` and
    ``stop`` and records when each run ended and how long it took."""

    def __init__(self):
        self.ends = array("d")
        self.costs = array("d")
        self._previous = None

    def _tick(self, _signum=None, _frame=None):
        start = time.perf_counter()
        kernel()
        end = time.perf_counter()
        self.ends.append(end)
        self.costs.append(end - start)

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        self._tick()        # every stretch has at least one kernel time
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def _pace(self, k):
        """Local median kernel time around run ``k``."""
        lo = max(0, min(k - SMOOTH // 2, len(self.costs) - SMOOTH))
        return statistics.median(self.costs[lo:lo + SMOOTH])

    def normalized(self, t0, t1):
        """Seconds that the program's part of the stretch from ``t0`` to
        ``t1`` (``time.perf_counter`` values) takes at the reference pace.
        """
        first = bisect_right(self.ends, t0)
        last = bisect_right(self.ends, t1)
        total, prev = 0.0, t0
        for k in range(first, last):
            total += (self.ends[k] - self.costs[k] - prev) / self._pace(k)
            prev = self.ends[k]
        total += (t1 - prev) / self._pace(min(last, len(self.costs) - 1))
        return total * REFERENCE_S

    def slowdown(self):
        """Median kernel time over the reference: 1 on a quiet core."""
        return statistics.median(self.costs) / REFERENCE_S
