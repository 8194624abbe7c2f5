"""Machine-speed yardstick for the benchmark timings.

On a shared 2-core sandbox the same single-threaded work runs up to 2x
slower from one second to the next, as neighbours load the shared cores
(CPU time equals wall time, so it is not preemption). A fixed small
workload timed right before and after each measured step gives the speed of
the core at that moment, and :func:`normalize` rescales the step's wall time
to reference speed.
"""

from __future__ import annotations

import time

import numpy as np

# Probe time on an unloaded core of the 2-core x86-64 sandbox the benchmark
# was calibrated on; normalized seconds are wall seconds at that speed.
REFERENCE_S = 0.005

_rng = np.random.default_rng(0)
_PROFIT = (-_rng.random(60)).tolist()
_WEIGHT = _rng.integers(5, 26, 60).tolist()
_CAP = 120


def probe() -> float:
    """Wall seconds of 40 fixed min-knapsack DP sweeps over 60 items."""
    t0 = time.perf_counter()
    for _ in range(40):
        dp = np.zeros(_CAP + 1)
        for w, p in zip(_WEIGHT, _PROFIT):
            with_item = dp[: _CAP + 1 - w] + p
            np.copyto(dp[w:], with_item, where=with_item < dp[w:])
    return time.perf_counter() - t0


def normalize(seconds: float, probes) -> float:
    """``seconds`` at reference speed, given probe times taken around it."""
    return seconds * REFERENCE_S * len(probes) / sum(probes)
