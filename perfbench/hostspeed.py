"""Host speed: timings scaled to a reference speed of the machine.

The benchmark runs on shared hosts whose speed changes by up to ~1.7x,
from one second to the next and in spells of minutes: other tenants
load the same physical cores, and the slowdown shows in the process's
CPU time as much as in its wall time, so neither clock alone is steady
from run to run.

A pass therefore samples the host's speed while it runs.  Every
``INTERVAL_S`` a timer signal interrupts the program for one short
calibration burst, a fixed workload independent of the program under
test.  The host's speed over a stretch of the pass is ``REFERENCE_S``
over the mean burst inside it, and the stretch's time is its wall time
minus the bursts, times that speed to the power ``SENSITIVITY``: a slow
second stretches the program and the bursts taken during it and cancels
out, while a change to the program moves the program alone.

A burst has two halves, the two kinds of work the program's time goes
to: interpreter work (attribute and dictionary look-ups, float
arithmetic) on a working set of a few KiB, and scattered reads from
8 MiB, which miss the caches the way walking the program's heap does.
It imports nothing, so a burst can interrupt the program in the middle
of an import.
"""

from __future__ import annotations

import gc
import signal
import statistics
import time
from typing import List, Tuple

#: CPU seconds one burst takes at the reference host speed (about its
#: mean inside a pass on the 2-vCPU x86_64 VM the baseline was taken on).
REFERENCE_S = 0.0025
#: Seconds between bursts.
INTERVAL_S = 0.05
#: How the program's time follows the burst's: a host that makes the
#: burst 10% slower makes the program ~14% slower.  On the host above,
#: log measured time against log host speed had slopes of -1.1 to -1.6
#: over the passes of ten-run sets of warm-fig10 and serve-mixed; of
#: the exponents tried from 1 to 1.5, 1.4 gave the smallest worst-case
#: ten-run spread over those sets and a cold-eval set.
SENSITIVITY = 1.4


class _Row:
    __slots__ = ("name", "delay", "slew", "load")

    def __init__(self, name: str, delay: float, slew: float, load: float):
        self.name = name
        self.delay = delay
        self.slew = slew
        self.load = load


_ROWS = [
    _Row(f"U{index}/Z", index * 1e-3, 0.5 + index % 7, 1.0 / (1 + index % 13))
    for index in range(40)
]
_BY_NAME = {row.name: row for row in _ROWS}
_ROUNDS = range(250)
_MEMORY = bytes(range(256)) * (1 << 15)
#: Scattered offsets into ``_MEMORY``; every burst shifts them by a
#: stride, so no burst finds the lines of the one before in the caches.
_PROBES = [(index * 2654435761) % len(_MEMORY) for index in range(3000)]
_STRIDE = 4099 * 64


def burst(shift: int = 0) -> float:
    """One calibration burst; returns the CPU seconds its thread took.

    CPU time, not wall time: another of the program's threads may take
    the interpreter lock in the middle of a burst, and that wait is not
    the host's speed (a busy host slows CPU time as much as wall time).
    The garbage collector is paused: a burst allocates next to nothing,
    and a collection of the program's heap must not land in it.
    """
    collecting = gc.isenabled()
    gc.disable()
    try:
        began = time.thread_time()
        total = 0.0
        for index in _ROUNDS:
            scale = 1.0 + index * 1e-4
            for row in _ROWS:
                total += row.delay * row.slew * scale + _BY_NAME[row.name].load
        size = len(_MEMORY)
        base = shift * _STRIDE % size
        for probe in _PROBES:
            total += _MEMORY[(probe + base) % size]
        seconds = time.thread_time() - began
    finally:
        if collecting:
            gc.enable()
    if not total > 0.0:  # keeps the work from being optimized away
        raise AssertionError("calibration produced no work")
    return seconds


class HostClock:
    """Samples the host's speed from now until :meth:`stop`."""

    def __init__(self) -> None:
        #: ``(perf_counter at its start, wall seconds, CPU seconds)`` of
        #: every burst
        self.bursts: List[Tuple[float, float, float]] = []
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def _sample(self, _signum, _frame) -> None:
        began = time.perf_counter()
        cpu = burst(len(self.bursts))
        self.bursts.append((began, time.perf_counter() - began, cpu))

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def measure(self, began: float, ended: float) -> Tuple[float, float, float]:
        """``(seconds at the reference speed, seconds measured, host speed)``
        of the stretch from ``began`` to ``ended`` (``perf_counter``).

        The measured seconds leave out the bursts; the host speed is
        ``REFERENCE_S`` over their mean CPU time (below 1: slower than
        the reference).  A stretch too short to hold a burst is timed
        with one burst right after it.
        """
        inside = [burst for burst in self.bursts if began <= burst[0] < ended]
        measured = ended - began - sum(wall for _, wall, _ in inside)
        speed = REFERENCE_S / statistics.mean(
            [cpu for _, _, cpu in inside] or [burst()]
        )
        return measured * speed ** SENSITIVITY, measured, speed
