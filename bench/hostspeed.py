"""The host's momentary speed, sampled while the operations run.

The shared virtual machines this benchmark was written on change speed by
20-40% within seconds (see README.md), so the wall time of the same
operation differs between two runs by more than any bound worth keeping.
``HostSpeed`` measures that speed alongside the operations: every
``INTERVAL`` seconds of wall time a SIGALRM handler runs ``reference_work``,
a fixed piece of the benchmark's own Python (about 0.5 ms alone, about
1 ms between operations), and records when it ran and how long it took.

``cost(start, end)`` turns an operation's wall-time interval into its cost
in units of the reference work (``ref``): the wall time, less the handler
time that fell inside it, times the mean rate (1 / duration) of the
reference samples taken within ``WINDOW`` seconds of the interval.  That is
the wall time divided by the reference's duration on the same core at the
same moment.  A
sample stretched by a context switch only lowers its rate a little, so the
mean of rates is not thrown off by it.

No thread or process is started: the handler runs in the main thread,
between bytecodes of whatever operation is running.
"""

from __future__ import annotations

import signal
from bisect import bisect_left, bisect_right
from itertools import accumulate
from time import perf_counter

INTERVAL = 0.02  # seconds of wall time between reference samples
WINDOW = 0.25  # samples this close to an operation's interval set its speed


def _compositions(n: int):
    if n == 0:
        yield ()
        return
    for first in range(1, n + 1):
        for rest in _compositions(n - first):
            yield (first,) + rest


def reference_work() -> int:
    """Compositions of 10 with exactly two ones, by enumerating all 512.

    Nested generators and short-lived tuples: among the references tried
    (a small-int loop, ``math.comb`` sums, big-int products), this one
    tracked the host's drift best on ``verify`` and as well as any on
    ``values``; see README.md.
    """
    return sum(1 for parts in _compositions(10) if parts.count(1) == 2)


class HostSpeed:
    """Reference samples taken on a wall-clock timer while the block runs."""

    def __init__(self) -> None:
        self.at: list[float] = []  # start of each sample
        self.took: list[float] = []  # its duration
        self._previous_handler = None

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        reference_work()
        self.took.append(perf_counter() - start)
        self.at.append(start)

    def __enter__(self) -> "HostSpeed":
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL, INTERVAL)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self.index()

    def index(self) -> None:
        """Prefix sums over the samples, for ``cost``."""
        self._rates = [0.0, *accumulate(1 / took for took in self.took)]
        self._taken = [0.0, *accumulate(self.took)]

    def cost(self, start: float, end: float) -> float:
        """The interval's wall time less sampling, in reference units."""
        inside = slice(bisect_left(self.at, start), bisect_left(self.at, end))
        wall = end - start - (self._taken[inside.stop] - self._taken[inside.start])
        lo, hi = bisect_left(self.at, start - WINDOW), bisect_right(self.at, end + WINDOW)
        return wall * (self._rates[hi] - self._rates[lo]) / (hi - lo)
