"""Host-speed reference for timing on a shared machine.

On a small shared host the speed of one core drifts by up to a third, in
stretches from a fraction of a second to minutes, so raw wall times of the
same code differ by that much between runs. Every timed region is therefore
bracketed by a fixed reference loop, and times are reported scaled to a
nominal host on which that loop takes `NOMINAL_REFERENCE_S`.

The loop mixes the two kinds of work whose slowdown best tracked the
workloads' slowdown when measured side by side: many small numpy calls, and
a list comprehension over a list too large for the core's private caches.
It is the benchmark's own code, so no change to rvdlm moves it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: Seconds the reference loop is taken to last on the nominal host.
NOMINAL_REFERENCE_S = 0.020

_MATRIX = np.eye(4) * 2.0 + 0.1
_SMALL_CALLS = 1000
_LIST = [(i % 1000) * 1e-3 for i in range(120_000)]


def reference_seconds() -> float:
    """Median seconds of five runs of the reference loop, now."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        for _ in range(_SMALL_CALLS):
            np.linalg.cholesky(_MATRIX) @ _MATRIX
        sum([x * 1.5 + 0.25 for x in _LIST])
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def calibrated(fn, *args):
    """Call `fn(*args)` between two reference measurements.

    Returns (result, wall seconds, nominal seconds): the wall time scaled by
    NOMINAL_REFERENCE_S over the mean reference time around the call.
    """
    before = reference_seconds()
    t0 = time.perf_counter()
    out = fn(*args)
    seconds = time.perf_counter() - t0
    ref = 0.5 * (before + reference_seconds())
    return out, seconds, seconds * NOMINAL_REFERENCE_S / ref
