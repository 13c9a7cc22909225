"""A host-speed probe that runs alongside a timed phase.

On a shared host the speed of a vCPU drifts by tens of percent, in phases
from a fraction of a second to many minutes, while the process is never
descheduled (its CPU time equals its wall time): whatever shares the
physical core slows it.  A benchmark run cannot outlast the slow phases, so
raw host seconds of two runs of the same code can differ by more than the
benchmark's bounds.

:func:`timed` calls a function while a ``SIGALRM`` timer interrupts it every
:data:`PERIOD_S` to time a fixed slice of arithmetic, once more just before
and once just after.  The mean slice time is the host's speed over the phase,
measured in the same process and interleaved with it; a probe timed before
and after a phase, or in another process, tracks the phase's speed far less
well.  The phase's host seconds, the slices' own time excluded, are then
scaled to the speed at which one slice takes :data:`REFERENCE_SLICE_S`.  The
slice lives here, not in ``src/``, so no change to the simulator moves it.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import NamedTuple

#: Iterations of the probe's arithmetic slice, about 0.5 ms.
SLICE_ITERATIONS = 5_000

#: Wall seconds between slices while a phase runs (about 2% overhead).
PERIOD_S = 0.025

#: Host seconds of one slice at the speed host times are scaled to, about
#: a quiet 2-vCPU Xeon container's.
REFERENCE_SLICE_S = 0.0005


class Timing(NamedTuple):
    raw_s: float     # wall seconds of the phase, the probe's slices excluded
    scaled_s: float  # raw_s at the reference speed
    slices: int      # slices the speed was averaged over


def _slice() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(SLICE_ITERATIONS):
        x = (x * 31 + i) % 1_000_003
    return time.perf_counter() - start


def timed(fn):
    """Call ``fn()`` with the probe running; return its value and a
    :class:`Timing`.  Only for the main thread, which receives ``SIGALRM``."""
    slices = [_slice()]
    previous = signal.signal(signal.SIGALRM,
                             lambda *_: slices.append(_slice()))
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
    start = time.perf_counter()
    try:
        value = fn()
    finally:
        # Stop the timer before reading the clock, so every slice taken
        # after the first falls inside the timed interval.
        signal.setitimer(signal.ITIMER_REAL, 0)
        elapsed = time.perf_counter() - start
        signal.signal(signal.SIGALRM, previous)
    raw_s = elapsed - sum(slices[1:])
    slices.append(_slice())
    speed = statistics.fmean(slices)
    return value, Timing(raw_s, raw_s * REFERENCE_SLICE_S / speed, len(slices))
