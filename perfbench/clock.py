"""Time as a quiet CPU would have spent it, read from an interleaved probe.

On a shared host the worker's CPU runs at full speed at some moments and at
little more than half speed at others, as other tenants come and go, and the
mix drifts over minutes. The raw wall time of the same 10 s scan moved
between 6.4 and 11.9 s from run to run that way, and no amount of work per
run averages out a drift that lasts longer than the run.

``ProbeClock`` interrupts its process every ``PERIOD_S`` with SIGALRM and
times a fixed kernel of integer work, modelled on framestab's inner loops
(XOR, AND and popcount of Python ints in a recursion) but kept outside the
package, so that no change to framestab changes the kernel. Each stretch of
time between two probes is scaled by ``REF_NS`` over the kernel time of the
probe that ends it, and the probes' own time is left out: ``scaled_s(t0,
t1)`` is how long ``[t0, t1]`` would have taken on a CPU that runs the
kernel in ``REF_NS``, which is about its time at full speed on the 2-vCPU
host the benchmark was built on.
"""

from __future__ import annotations

import bisect
import signal
import time

PERIOD_S = 0.01
REF_NS = 100_000

# four levels of four (lo, hi) pairs: 256 leaves, about 100 us at full speed
_TABLE = [((0, 0), (0x5A5A5A, 0x3C3C3C), (0xA5A5A5 ^ k, 0x0F0F0F), (0xFFFFFF >> k, 0x123456))
          for k in range(4)]


def kernel(i: int = 0, lo: int = 0, hi: int = 0) -> int:
    if i == len(_TABLE) - 1:
        total = 0
        for mlo, mhi in _TABLE[i]:
            wlo = lo ^ mlo
            whi = hi ^ mhi ^ (lo & mlo)
            total += wlo.bit_count() + 4 * (whi & ~wlo).bit_count()
        return total
    return sum(kernel(i + 1, lo ^ mlo, hi ^ mhi ^ (lo & mlo)) for mlo, mhi in _TABLE[i])


class ProbeClock:
    def __init__(self):
        self.starts: list[int] = []  # perf_counter_ns at each probe's start and end
        self.ends: list[int] = []

    def _probe(self, signum=None, frame=None):
        start = time.perf_counter_ns()
        kernel()
        self.starts.append(start)
        self.ends.append(time.perf_counter_ns())

    def start(self):
        self._probe()  # so that a stretch always has a probe to be scaled by
        signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def scaled_s(self, t0: int, t1: int) -> float:
        """Seconds that [t0, t1], in perf_counter_ns, takes on the reference CPU."""
        i = bisect.bisect_left(self.starts, t0)
        total, prev = 0.0, t0
        while i < len(self.starts) and self.starts[i] < t1:
            total += (self.starts[i] - prev) / (self.ends[i] - self.starts[i])
            prev = self.ends[i]
            i += 1
        # the stretch after the window's last probe runs at that probe's speed
        last = max(i - 1, 0)
        total += (t1 - prev) / (self.ends[last] - self.starts[last])
        return total * REF_NS / 1e9

    def slowdown(self) -> float:
        """Median probe time over REF_NS: how contended the CPU was."""
        times = sorted(e - s for s, e in zip(self.starts, self.ends))
        return times[len(times) // 2] / REF_NS
