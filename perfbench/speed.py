"""The machine-speed probe that puts the benchmark's times on one scale.

A shared VM does not run at one speed.  On the 2-vCPU benchmark VM a
fixed kernel timed back to back switches between two levels about 35%
apart every few seconds, and the process's CPU time swings with it, so
repeats inside a run cannot remove the swing.  The probe measures it
while the program runs: every ``INTERVAL_S`` of wall time a ``SIGALRM``
handler on the main thread times :func:`kernel`, fixed pure-Python and
NumPy work that uses no repository code, so a change to the program
cannot change it.

:meth:`SpeedProbe.rescale` takes the probes out of a window's seconds
and rescales the rest to the reference speed (``REFERENCE_KERNEL_S`` per
kernel): seconds spent while the machine was slow shrink, and seconds
spent while it was fast stay about the same.
"""

from __future__ import annotations

import signal
import statistics
import time
from typing import List, Tuple

import numpy as np

INTERVAL_S = 0.05
"""Wall seconds between probes: about 2% of the run goes to the probe."""

REFERENCE_KERNEL_S = 0.00075
"""Seconds :func:`kernel` is taken to last at the reference speed.

Any constant works, since only runs on one machine are compared; this
one is about the kernel's time at the faster of the benchmark VM's two
speed levels, so reference seconds read close to real ones there.
"""

_PYTHON_STEPS = 8000
_NUMPY_STEPS = 16
_ARRAY = np.linspace(0.0, 1.0, 4096)


def kernel() -> float:
    """Fixed work mixing interpreted loops and small array operations."""
    total = 0
    for i in range(_PYTHON_STEPS):
        total += i * i % 7
    values = _ARRAY
    for _ in range(_NUMPY_STEPS):
        values = np.sqrt(values * 1.0001 + 1.0)
    return total + float(values[0])


class SpeedProbe:
    """Samples :func:`kernel`'s time on a wall-clock timer while active."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []
        """``(end, seconds)`` of every probe, in time order."""
        self._previous = None

    def _probe(self, signum=None, frame=None) -> None:
        started = time.perf_counter()
        kernel()
        ended = time.perf_counter()
        self.samples.append((ended, ended - started))

    def __enter__(self) -> "SpeedProbe":
        self._previous = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def rescale(self, start: float, end: float, seconds: float) -> float:
        """``seconds`` spent between the stamps, at the reference speed.

        ``seconds`` is wall or CPU time of the window ``[start, end]``
        (``time.perf_counter()`` stamps).  The probes that ran in the
        window are taken out of it, and their speed, averaged over the
        window's wall time, rescales the rest.  A window too short to
        hold a probe is probed once when this is called.
        """
        window = [t for ended, t in self.samples if start <= ended <= end]
        seconds -= sum(window)
        if not window:
            self._probe()
            window = [self.samples[-1][1]]
        return seconds * statistics.fmean(REFERENCE_KERNEL_S / t for t in window)
