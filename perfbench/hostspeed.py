"""Host-speed probes: a fixed exact-arithmetic kernel timed between operations.

The benchmark runs on a few cores of a shared host whose speed, as seen by
one process, swings by tens of per cent for seconds to minutes at a time.  A
swing that lasts a whole run moves every operation of that run alike, and no
statistic over the run's own latencies can remove it.  So the timed loop
stops every PROBE_EVERY_S seconds, between two operations, and times a probe:
fixed work of the same kinds as the program's (a `Fraction` elimination, and
building, encoding and decoding a small JSON record set, as the cli does), defined
here so that no change to the program can change it.  Each operation's
latency is then divided by the host's slowdown at that moment, the mean time
of the nearest probes over REFERENCE_S, which gives the latency the operation
would have had at the reference speed.

The garbage collector is off during a probe, so the program's heap does not
enter the probe's time.  The probes share the process with the program and
see what slows the process as a whole; a change to the program that slows
only its own operations is not divided out.
"""
from __future__ import annotations

import bisect
import gc
import json
import statistics
import time
from fractions import Fraction

PROBE_EVERY_S = 0.2
#: probes whose mean gives the slowdown at one moment
NEAREST = 5
#: about the fastest time of one probe seen on the reference host (Intel Xeon,
#: 2 vCPUs at 2.1 GHz nominal, Python 3.11); a constant, so that rescaled
#: figures of different runs and commits compare
REFERENCE_S = 2.5e-3

_N = 6
# a fixed 6 x 7 augmented system with entries p/q, |p| <= 20, 1 <= q <= 20
_SYSTEM = [
    [Fraction((7 * i + 11 * j) % 41 - 20, (5 * i + 3 * j) % 20 + 1) for j in range(_N + 1)]
    for i in range(_N)
]


def eliminate():
    """Gauss-Jordan elimination of _SYSTEM in exact arithmetic."""
    a = [row[:] for row in _SYSTEM]
    r = 0
    for c in range(_N):
        p = next((i for i in range(r, _N) if a[i][c] != 0), None)
        if p is None:
            continue
        a[r], a[p] = a[p], a[r]
        inv = 1 / a[r][c]
        a[r] = [inv * v for v in a[r]]
        for i in range(_N):
            if i != r and a[i][c] != 0:
                f = a[i][c]
                a[i] = [x - f * y for x, y in zip(a[i], a[r])]
        r += 1
    return a


def records():
    """A small record set built, encoded and decoded as JSON."""
    d = {}
    for i in range(400):
        d[str(i * 7919 % 1000)] = [i, str(i), (i, i + 1)]
    return len(json.loads(json.dumps(d, sort_keys=True)))


def kernel():
    eliminate()
    eliminate()
    records()


class HostSpeed:
    """Probe times of one run, and latencies rescaled by them."""

    def __init__(self):
        self.at: list[float] = []
        self.took: list[float] = []

    def probe(self) -> None:
        clock = time.perf_counter
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = clock()
            kernel()
            t1 = clock()
        finally:
            if was_enabled:
                gc.enable()
        self.at.append((t0 + t1) / 2)
        self.took.append(t1 - t0)

    def due(self) -> bool:
        return not self.at or time.perf_counter() - self.at[-1] >= PROBE_EVERY_S

    def slowdown(self, t: float) -> float:
        """Mean time of the NEAREST probes around time t, over REFERENCE_S."""
        i = bisect.bisect(self.at, t)
        lo = max(0, min(i - NEAREST // 2, len(self.at) - NEAREST))
        return statistics.fmean(self.took[lo:lo + NEAREST]) / REFERENCE_S

    def rescale(self, starts, durations) -> list[float]:
        """Each duration divided by the slowdown at the middle of its interval."""
        return [d / self.slowdown(s + d / 2) for s, d in zip(starts, durations)]

    def mean_slowdown(self) -> float:
        return statistics.fmean(self.took) / REFERENCE_S
