"""Times scaled to a fixed machine speed, measured by a probe between operations.

On a shared machine other tenants slow every process down, by up to about
1.8x, in stretches that last from seconds to minutes: longer than one run,
so neither a minimum nor a median within a run removes them, and CPU time
slows down as much as wall time.  The benchmark therefore runs a small
fixed probe, the benchmark's own code and never the package's, at most
``PROBE_EVERY`` seconds apart between operations.  An interval's time is
scaled by ``REF_PROBE_S`` over the mean probe time from the last probe
before it to the first one after it: seconds on a machine where the probe
takes ``REF_PROBE_S``.

The probe does what the package's Groebner code does most, divisibility
tests between exponent tuples, because its slow-down tracks the
package's better than an arithmetic loop's does.  The probe is fixed code,
so work a change adds to the package lengthens the interval and is never
scaled away.
"""

from __future__ import annotations

import bisect
import gc
import random
import statistics
import time

PROBE_EVERY = 0.1
REF_PROBE_S = 0.0015
PROBE_REPS = 3

_rng = random.Random(5)
_TERMS = [tuple(_rng.randrange(6) for _ in range(6)) for _ in range(100)]
_DIVISORS = _TERMS[:40]


def _probe_once():
    hits = 0
    for m in _TERMS:
        for g in _DIVISORS:
            if all(a >= b for a, b in zip(m, g)):
                hits += 1
                break
    return hits


def probe_seconds():
    """Fastest of a few probe runs, with the collector held off."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = float("inf")
        for _ in range(PROBE_REPS):
            t0 = time.perf_counter()
            _probe_once()
            best = min(best, time.perf_counter() - t0)
    finally:
        if enabled:
            gc.enable()
    return best


class Clock:
    """Probe marks along a run; ``scaled`` converts an interval."""

    def __init__(self):
        self.times = []
        self.probes = []
        self.probe()

    def probe(self):
        self.probes.append(probe_seconds())
        self.times.append(time.perf_counter())

    def tick(self):
        """Probe if the last probe is older than ``PROBE_EVERY``."""
        if time.perf_counter() - self.times[-1] >= PROBE_EVERY:
            self.probe()

    def scaled(self, t0, t1):
        """Seconds at the reference speed for the interval [t0, t1].

        Call it once a probe later than ``t1`` has run.
        """
        i = max(0, bisect.bisect_right(self.times, t0) - 1)
        j = bisect.bisect_left(self.times, t1)
        return (t1 - t0) * REF_PROBE_S / statistics.fmean(self.probes[i:j + 1])

    def run(self, fn):
        """Run ``fn`` between probes: (scaled seconds, wall seconds, result)."""
        self.tick()
        t0 = time.perf_counter()
        res = fn()
        t1 = time.perf_counter()
        self.probe()
        return self.scaled(t0, t1), t1 - t0, res
