"""Timing at a fixed reference machine speed.

The host this benchmark was defined on (2 shared cores) changes speed by
tens of percent within seconds, and the same pass can take 4 s or 7 s.  So
every timing is scaled by a probe: a fixed mix of interpreter work and small
NumPy calls, the same kind of work the pipeline does, calling nothing in
daedisc.  A timer signal runs the probe every ``period`` seconds.  Each
interval after a probe counts as its wall time times ``PROBE_REFERENCE_S``
over that probe's time, so the sum reads as seconds at the reference
machine's speed.  The probes' own time is left out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PROBE_ROUNDS = 150
# median probe time on the machine the benchmark was defined on
PROBE_REFERENCE_S = 0.0035
_X = np.linspace(0.0, 1.0, 1001)


def probe() -> float:
    """Wall time of the fixed probe computation."""
    held: dict[int, object] = {}
    acc = 0.0
    t0 = time.perf_counter()
    for i in range(PROBE_ROUNDS):
        y = np.sin(_X) * 1.5 + _X
        if not np.all(np.isfinite(y)):
            raise ArithmeticError("probe produced a non-finite value")
        held[i % 7] = y
        acc += float(y[i % 1001])
        for j in range(20):
            acc += isinstance(held, dict) + j
    return time.perf_counter() - t0


def probe_median(n: int = 5) -> float:
    return statistics.median(probe() for _ in range(n))


def scale(seconds: float, probe_seconds: float) -> float:
    return seconds * PROBE_REFERENCE_S / probe_seconds


class SpeedClock:
    """Reference-speed clock sampled by SIGALRM; use as a context manager in
    the main thread.  Between samples it runs at the rate the last probe
    measured, so it is continuous and never runs backwards at a sample."""

    def __init__(self, period: float = 0.05):
        self.period = period
        self.probe_s = 0.0  # wall time spent probing
        # (scaled time, wall time it was read at, reference s per wall s),
        # replaced as one object so a tick never leaves it half updated
        self._state = (0.0, 0.0, 1.0)
        self._busy = False
        self._saved_handler = None

    def __enter__(self) -> "SpeedClock":
        self._state = (0.0, time.perf_counter(), PROBE_REFERENCE_S / probe())
        self._saved_handler = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._saved_handler)

    def _tick(self, signum, frame) -> None:
        if self._busy:  # a probe outlasted the period
            return
        self._busy = True
        try:
            start = time.perf_counter()
            scaled, last, rate = self._state
            scaled += (start - last) * rate
            p = probe()
            end = time.perf_counter()
            self.probe_s += end - start
            self._state = (scaled, end, PROBE_REFERENCE_S / p)
        finally:
            self._busy = False

    def now(self) -> float:
        """Seconds at reference speed since the clock started."""
        scaled, last, rate = self._state
        return scaled + (time.perf_counter() - last) * rate
