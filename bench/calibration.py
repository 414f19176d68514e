"""Correction for the speed of a shared CPU.

On a machine shared with other work the same pass can take 1.5 times
as long from one minute to the next.  The benchmark therefore times a
fixed pure-Python loop between items and scales every measured
duration to the speed at which that loop takes ``REFERENCE_S``:

    reported = measured * REFERENCE_S / (loop time near the measurement)

Reported times are "seconds at the reference speed"; on an idle
machine of the baseline's kind they are close to plain wall time.
"""

from __future__ import annotations

import statistics
import time

REFERENCE_S = 0.006
INTERVAL_S = 0.2  # calibrate at most this often between items
WINDOW_S = 1.0  # samples this close to a measurement set its speed


def _store(n: int, x: float, table: dict) -> float:
    table[n] = x * 0.5 + n
    return table[n]


def _recurrence(x: float, start: int) -> dict[int, float]:
    out = [0.0] * 8
    above, here, norm = 0.0, 1e-30, 0.0
    for k in range(start, 0, -1):
        below = (2.0 * k / x) * here - above
        above, here = here, below
        if k - 1 < 8:
            out[k - 1] = here
        if k % 2 == 0:
            norm += 2.0 * above
    norm += here
    return {i: value / norm for i, value in enumerate(out)}


def loop_time() -> float:
    """Seconds for the fixed calibration loop: calls, dict stores and a
    backward float recurrence, the instruction mix of the solver's
    pure-Python special functions (a tight arithmetic loop tracks the
    solver's slow-downs less well)."""
    start = time.perf_counter()
    table: dict[int, float] = {}
    acc = 0.0
    for i in range(20_000):
        acc += _store(i & 7, acc * 1e-9, table)
    for i in range(160):
        values = _recurrence(5.0 + (i % 13), 40)
        z = complex(values[1], values[2])
        acc += abs(z * z.conjugate())
    return time.perf_counter() - start


class Clock:
    """Calibration samples over a run, and durations scaled by them."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []  # (midpoint, loop seconds)

    def calibrate(self) -> None:
        start = time.perf_counter()
        seconds = loop_time()
        self.samples.append((start + 0.5 * seconds, seconds))

    def maybe_calibrate(self) -> None:
        if not self.samples or time.perf_counter() - self.samples[-1][0] >= INTERVAL_S:
            self.calibrate()

    def scale(self, start: float, end: float) -> float:
        """Duration of [start, end] at the reference speed."""
        mid = 0.5 * (start + end)
        reach = WINDOW_S + 0.5 * (end - start)
        near = [s for t, s in self.samples if abs(t - mid) <= reach]
        if not near:
            near = [s for _, s in sorted(self.samples, key=lambda p: abs(p[0] - mid))[:2]]
        return (end - start) * REFERENCE_S / statistics.median(near)
