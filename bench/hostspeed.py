"""Host-speed calibration: a fixed kernel timed next to every operation.

The benchmark runs on a shared host whose speed drifts: the same work can
take up to about twice as long for half a minute, in CPU time as well as
wall time, so raw timings of one run depend on which phase it landed in.  To
cancel that, a fixed kernel that does not touch pllab is timed right before
and right after every timed operation.  An operation's time at reference
speed is

    seconds * REFERENCE_S / (mean of the two kernel times around it)

so a phase that slows the kernel and the program alike leaves it unchanged,
while a change to the program moves it in full.  The kernel mixes what the
program spends its time on: scalar float arithmetic in interpreted loops,
numpy ufuncs on small arrays and small draws from a numpy generator.

Set-up time (spawning an interpreter that imports the program) slows less
than that kernel in a slow phase, so it is scaled by a bare interpreter
start, timed right before and right after each spawn, instead.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time

import numpy as np

# kernel seconds on the reference machine (a 2-vCPU Xeon at 2.1 GHz) in a
# fast phase; timings at reference speed are seconds on that machine then
REFERENCE_S = 0.025
# a kernel reading this recent serves as the next operation's "before"
FRESH_S = 0.1
# seconds of a bare interpreter start (``python -S -c pass``) on that machine
BARE_START_REFERENCE_S = 0.010

_GRID = np.linspace(0.1, 3.0, 32)


def kernel():
    """The fixed calibration work; about 21 ms in a fast phase of the reference machine."""
    acc = 0.0
    for i in range(40_000):
        x = 0.001 * i
        acc += math.exp(-x) / (1.0 + x * x)
    for _ in range(3_000):
        acc += float(np.sum(np.exp(-_GRID) * _GRID))
    rng = np.random.default_rng(0)
    for _ in range(3_000):
        acc += float(rng.random(8).max())
    return acc


class HostClock:
    """Times calls together with the kernel right before and right after each."""

    def __init__(self):
        self._last = (-math.inf, 0.0)  # (perf_counter when the last kernel ended, its seconds)

    def _kernel_seconds(self):
        t0 = time.perf_counter()
        kernel()
        t1 = time.perf_counter()
        self._last = (t1, t1 - t0)
        return t1 - t0

    def _reading(self):
        """The last kernel time if it was taken just now, else a fresh one."""
        ended, seconds = self._last
        return seconds if time.perf_counter() - ended < FRESH_S else self._kernel_seconds()

    def timed(self, fn, *args, **kwargs):
        """Call ``fn``; returns (its result, seconds, kernel seconds around it)."""
        before = self._reading()
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        seconds = time.perf_counter() - t0
        return out, seconds, 0.5 * (before + self._kernel_seconds())


def bare_start():
    """Seconds to spawn and reap an interpreter that does nothing."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-S", "-c", "pass"], check=True, timeout=60)
    return time.perf_counter() - t0
