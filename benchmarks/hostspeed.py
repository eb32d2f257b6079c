"""The host's speed, sampled while a child works, to scale its times.

On a shared virtual machine the speed of one CPU changes by up to 1.8x over
seconds to minutes, with nothing else running in the machine: the same
``run_claims(4, 3)`` took 12.7 s to 23.0 s in consecutive fresh processes,
and wall and CPU time moved together.  Medians over a run cannot remove a
drift that lasts as long as the run.

``HostSpeed`` measures that drift where and when the program runs.  A timer
signal (``SIGALRM``, every ``INTERVAL_S`` of wall time) interrupts the child
and runs ``kernel``: a fixed exact Gauss-Jordan elimination over the
standard library's ``Fraction``, the kind of arithmetic hatilt spends its
time on, sharing no code with it.  Each sample records when the kernel ran
and how long it took.  A stretch of work during which the kernel took ``c``
seconds would have taken ``REF_KERNEL_S / c`` of its time on a host where
the kernel takes ``REF_KERNEL_S``, so

    scaled time = (wall time - time spent in the handler) * mean(REF_KERNEL_S / c)

over the samples taken during (or near) that stretch.  The samples are
uniform in wall time, so the mean of the speed ratio is the time average
of the host's speed.  The time the handler takes (about 2% of the run) is
left out of every scaled time.

A change to hatilt cannot move the kernel's time, except by changing how
much the program competes with it for caches and memory, which also shows
in ``peak_rss_mb``.
"""

from __future__ import annotations

import bisect
import signal
import time
from fractions import Fraction

# seconds one kernel takes on the reference host; on the 2-vCPU host the
# benchmark was written on it took 1.05 ms when the host ran fast
REF_KERNEL_S = 0.001
INTERVAL_S = 0.05
# samples this far (in seconds) before or after a request also describe it
MARGIN_S = 0.5

_N = 7
_MATRIX = [
    [Fraction((7 * i + 3 * j * j + 1) % 11 - 5, 1 + (i + 2 * j) % 5) for j in range(_N)]
    for i in range(_N)
]


def kernel():
    """Reduce ``_MATRIX`` to reduced row echelon form; returns its rank."""
    m = [row[:] for row in _MATRIX]
    rank = 0
    for c in range(_N):
        pivot = next((i for i in range(rank, _N) if m[i][c]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for i in range(_N):
            if i != rank and m[i][c]:
                f = m[i][c]
                m[i] = [a - f * b for a, b in zip(m[i], m[rank])]
        rank += 1
    return rank


class HostSpeed:
    """Samples of the kernel's time, taken on a wall-clock timer."""

    def __init__(self):
        self.starts = []  # time.perf_counter() at each sample's start
        self.costs = []  # the kernel's time in each sample
        self._spent = [0.0]  # handler time before sample k (prefix sums)

    def sample(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self.starts.append(t0)
        self.costs.append(t1 - t0)
        # the bookkeeping above is part of the handler's time as well
        self._spent.append(self._spent[-1] + (time.perf_counter() - t0))

    def start(self):
        signal.signal(signal.SIGALRM, lambda signum, frame: self.sample())
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def _window(self, start, end):
        return bisect.bisect_left(self.starts, start), bisect.bisect_left(self.starts, end)

    def spent(self, start, end):
        """Handler time of the samples that started in [start, end)."""
        lo, hi = self._window(start, end)
        return self._spent[hi] - self._spent[lo]

    def speed(self, start, end, margin=MARGIN_S):
        """Mean of REF_KERNEL_S / c over the samples within ``margin`` of
        [start, end); over all samples if there are none."""
        lo, hi = self._window(start - margin, end + margin)
        costs = self.costs[lo:hi] or self.costs
        if not costs:
            raise RuntimeError("no host speed samples")
        return sum(REF_KERNEL_S / c for c in costs) / len(costs)

    def scaled(self, start, end, margin=MARGIN_S):
        """The time from ``start`` to ``end``, less the handler's time, at
        the reference speed."""
        return (end - start - self.spent(start, end)) * self.speed(start, end, margin)
