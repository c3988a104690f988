"""Host-speed reference loop, for timings that do not drift with the host.

On a shared host the speed of the machine drifts by a third within minutes,
and a whole 55 s run can fall in a slow spell. A fixed loop of the same
kind of work as a solve (Python bytecode and small dense numpy solves), run
between cells, slows down with the host. Dividing each latency by the
loop's time in the same pass and multiplying by ``REFERENCE_S`` gives the
latency on a host where the loop takes ``REFERENCE_S``. The loop's code is
the benchmark's, so a change to vpcc does not move it.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# About the loop's time in a fast spell of the 2-core host that the
# baselines in README.md come from, so scaled timings read close to wall
# time there.
REFERENCE_S = 0.0025

_RNG = np.random.default_rng(0)
_M = _RNG.random((12, 12)) + 12.0 * np.eye(12)
_B = _RNG.random(12)


def reference_loop() -> float:
    """Seconds one run of the fixed loop takes now."""
    start = time.perf_counter()
    total = 0
    for i in range(20000):
        total += i % 7
    for _ in range(200):
        np.linalg.solve(_M, _B)
    return time.perf_counter() - start


def scale(loop_seconds: list[float]) -> float:
    """Factor from wall time to reference time, over loop runs of one spell."""
    return REFERENCE_S / statistics.median(loop_seconds)

