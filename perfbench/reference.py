"""Samples how fast the machine runs while a job runs.

On a shared virtual machine the speed of the same code drifts by tens of per
cent, both from one tenth of a second to the next and from one minute to the
next. While a job runs, a one-shot interval timer interrupts it every
``PERIOD_S`` seconds and the signal handler runs a fixed burst of reference
work, timing it. The burst time is taken out of the job's time, and the
mean burst time over a pass tells how slow the machine was during that pass:
the job's time divided by it is a time at a fixed machine speed, with most
of the drift gone.

The burst does not use tspec and never changes, so a change to tspec moves
only the job's time. It mimics the Jost layer's hot loop: explicit steps of
u'' = q(x) u - 2ik u' over a small batch of complex k, a Python loop over
numpy calls on arrays of a few dozen elements.
"""

from __future__ import annotations

import signal
import time

import numpy as np

BURST_STEPS = 400
PERIOD_S = 0.04
# The burst's time in the handler on the idle 2-vCPU virtual machine the
# benchmark was built on; normalised times are seconds at that speed.
NOMINAL_BURST_S = 0.004

_KS = np.linspace(0.5, 12.0, 48) + 0.3j
_TWO_IK = 2j * _KS


def burst() -> complex:
    y = np.zeros((2, _KS.size), dtype=complex)
    y[0] = 1.0
    h = -1.0 / BURST_STEPS
    x = 1.0
    for _ in range(BURST_STEPS):
        dy = np.empty_like(y)
        dy[0] = y[1]
        dy[1] = (1.0 + 0.5 * x) * y[0] - _TWO_IK * y[1]
        y = y + h * dy
        x += h
    return complex(y[0, 0])


class SpeedProbe:
    """Context manager: runs timed bursts every ``PERIOD_S`` s while the block runs.

    The timer is re-armed only after a burst ends, so bursts never nest and
    take at most a ``burst / (burst + PERIOD_S)`` share of the block's time.
    ``seconds`` and ``count`` accumulate over every block the probe guards.
    """

    def __init__(self):
        self.seconds = 0.0
        self.count = 0
        self._previous = None

    def sample(self):
        """Runs and times one burst."""
        start = time.perf_counter()
        burst()
        self.seconds += time.perf_counter() - start
        self.count += 1

    def _handler(self, signum, frame):
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)
        return False
