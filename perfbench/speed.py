"""Core speed probe for a shared machine.

On a virtual machine whose cores are shared with other tenants, the
same pure-Python work can take anywhere from 1x to 2x as long from one
minute to the next, and a whole run can fall into a slow phase.  The
benchmark therefore times a fixed probe kernel between jobs and reports
every job time scaled to the probe's reference speed:

    reported = measured * PROBE_REFERENCE_S / probe time around the job

On an uncontended core of the reference machine the two agree.  The
kernel does the kind of work the toolkit does (Fraction arithmetic and
dict updates keyed by small tuples), so a slow phase stretches both by
about the same factor.  The kernel runs with the garbage collector
off, so that the program's own collector settings and heap size cannot
move the scale.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# Fastest probe time seen on the reference machine (Intel Xeon at
# 2.1 GHz, 2 vCPUs, CPython 3.11.7): the 5th percentile of 10 s of probes.
PROBE_REFERENCE_S = 0.00081
PROBE_REPEATS = 3
PROBE_INTERVAL_S = 0.1


def _kernel():
    acc = Fraction(0)
    counts = {}
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i % 11 + 1)
        key = (i % 13, i % 5)
        counts[key] = counts.get(key, 0) + i
    return acc, counts


def probe():
    """Fastest of a few runs of the kernel, in seconds."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        best = None
        for _ in range(PROBE_REPEATS):
            start = time.perf_counter()
            _kernel()
            elapsed = time.perf_counter() - start
            best = elapsed if best is None else min(best, elapsed)
    finally:
        if enabled:
            gc.enable()
    return best


def current_scale():
    """Factor from measured to reference seconds right now: the mean of
    three probes."""
    track = SpeedTrack()
    track.sample()
    track.sample()
    return track.scale(0, 2)


class SpeedTrack:
    """Probes taken between jobs, at most one per PROBE_INTERVAL_S."""

    def __init__(self):
        self.samples = [probe()]
        self._last = time.perf_counter()

    def maybe_sample(self):
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()

    def sample(self):
        self.samples.append(probe())
        self._last = time.perf_counter()

    def scale(self, before, after):
        """Factor from measured to reference seconds for a job that ran
        between probe samples ``before`` and ``after`` (indices)."""
        around = self.samples[before:after + 1]
        return PROBE_REFERENCE_S / statistics.mean(around)
