"""Machine speed, sampled while a workload runs.

A shared 2-core box changes speed by about ±20% over tens of seconds, and
a run's wall time moves with it. While the Speedometer is active, a timer
interrupts the run every PERIOD_S seconds. Each interrupt times a fixed
numpy kernel of the same kind as the program's hot path: small matrix
products plus scipy's logsumexp. Dividing a run's throughput by the mean
speed seen during the run gives its throughput at reference speed. On a
shared 2-core Xeon box that cut the run-to-run spread of the protocol
workload's throughput over ten seeds from 10-15% to about 3%.

The samples are taken between bytecodes of the main thread, where Python
runs signal handlers. The time they take is left out of ``clock()``, so a
workload that times itself with ``clock`` does not pay for them.
"""

from __future__ import annotations

import signal
import time

import numpy as np
from scipy.special import logsumexp

PERIOD_S = 0.5
BURST = 40  # kernel calls per sample: a few milliseconds
REFERENCE_RATE = 6500.0  # kernel calls per second that count as speed 1.0


class Speedometer:
    """Samples machine speed on SIGALRM while used as a context manager."""

    def __init__(self):
        rng = np.random.default_rng(0)
        self._x = rng.standard_normal((100, 13))
        self._means = rng.standard_normal((8, 13))
        self._inv = 1.0 / (rng.random((8, 13)) + 0.5)
        self.samples = []  # kernel calls per second, one per interrupt
        self.spent = 0.0  # seconds spent sampling
        self._previous = None

    def _kernel(self) -> float:
        x, mu, inv = self._x, self._means, self._inv
        quad = (x ** 2) @ inv.T - 2.0 * (x @ (mu * inv).T) + np.sum(mu ** 2 * inv, axis=1)
        return float(logsumexp(-0.5 * quad, axis=1).mean())

    def sample(self, *_signal_args) -> None:
        t0 = time.perf_counter()
        for _ in range(BURST):
            self._kernel()
        dt = time.perf_counter() - t0
        self.samples.append(BURST / dt)
        self.spent += dt

    def clock(self) -> float:
        """perf_counter() minus the time spent sampling."""
        return time.perf_counter() - self.spent

    def speed(self, first: int = 0) -> float:
        """Mean speed over samples[first:], relative to REFERENCE_RATE."""
        if len(self.samples) <= first:
            self.sample()
        recent = self.samples[first:]
        return sum(recent) / len(recent) / REFERENCE_RATE

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)
