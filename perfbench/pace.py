"""Host-speed sampling, so a time reads the same in a fast and a slow phase.

The shared 2-vCPU VMs the benchmark runs on change speed by up to 2x,
in phases of a few seconds to minutes, with no steal time reported:
process CPU time slows with wall time.  Phases that outlast a world
cannot be averaged away inside a run.  So while an untraced world runs,
an interval timer fires every :data:`INTERVAL_S` seconds and its handler
times :func:`kernel`, a fixed piece of pure-Python work, in the main
thread.  A stretch of the world is then reported in reference seconds:
its wall time minus the sampling's own time, times :data:`REFERENCE_S`
over the mean sample inside the stretch.  The samples are spread
evenly over wall time, so their mean is the stretch's average speed.
A stretch shorter than :data:`LOCAL_S` (a headline-metric call lasts
milliseconds) takes its speed from the samples within ``LOCAL_S``
around its middle: phases last seconds, so that is the speed it ran at.

A change to the program moves the world's wall time but not the
kernel's, so it shows in full; a change of host phase moves both.
"""

from __future__ import annotations

import signal
import time
from array import array
from typing import List, Tuple

__all__ = ["Pace", "kernel", "INTERVAL_S", "LOCAL_S", "REFERENCE_S"]

#: seconds of wall time between two samples
INTERVAL_S = 0.05
#: shortest stretch of wall time a speed is read over (~20 samples)
LOCAL_S = 1.0
#: what one :func:`kernel` call took in a fast phase of the 2-vCPU Xeon
#: VM the benchmark was sized on; only sets the scale of reported times
REFERENCE_S = 0.00028


_TABLE: dict = {}


def kernel(rounds: int = 1500) -> int:
    """Fixed interpreter work of the kind the simulator does (small-dict
    updates, integer arithmetic, method calls).

    It allocates no object the garbage collector tracks, so a sample
    never sets off a collection of the program's heap (whose time would
    then be taken off the program's).  Of the kernels tried against one
    OpenFT world rerun a dozen times, this one tracked the world's
    slowdowns best: world time over mean sample varied 3.5-4.5% where
    the world's own time varied 14-18%.
    """
    table = _TABLE
    table.clear()
    total = 0
    for index in range(rounds):
        key = (index * 7919) & 63
        table[key] = table.get(key, 0) + index
        total += key ^ index
    return total


class Pace:
    """Samples the host's speed on ``SIGALRM`` while it is entered."""

    def __init__(self, interval: float = INTERVAL_S) -> None:
        self.interval = interval
        #: sample start times and durations (``time.perf_counter``)
        self.at = array("d")
        self.took = array("d")
        self._previous = None

    def _sample(self, _signum, _frame) -> None:
        started = time.perf_counter()
        kernel()
        self.at.append(started)
        self.took.append(time.perf_counter() - started)

    def __enter__(self) -> "Pace":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.interval, self.interval)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _took(self, start: float, end: float) -> List[float]:
        return [took for at, took in zip(self.at, self.took)
                if start <= at < end]

    def window(self, start: float, end: float) -> Tuple[float, float]:
        """The total time of the samples begun in ``[start, end)``, and
        the mean sample over the stretch widened to :data:`LOCAL_S` (over
        every sample when none fell there)."""
        inside = self._took(start, end)
        middle = (start + end) / 2
        speed = (self._took(min(start, middle - LOCAL_S / 2),
                            max(end, middle + LOCAL_S / 2))
                 or list(self.took))
        if not speed:
            raise RuntimeError("no host-speed samples were taken")
        return sum(inside), sum(speed) / len(speed)

    def scaled(self, start: float, end: float) -> float:
        """Seconds the stretch ``[start, end)`` would take at the
        reference speed, without the sampling's own time."""
        spent, mean = self.window(start, end)
        return (end - start - spent) * REFERENCE_S / mean
