"""Calibration kernel: fixed numpy and Python work that runs no library code.

Imported, `kernel()` times the work in the running process.  Run as a
script (`python3 bench/calibration.py`), its whole wall time, interpreter
start-up and numpy import included, calibrates work done in fresh
interpreters.
"""

import time

import numpy as np

_X = np.random.default_rng(0).random(200_000)


def kernel() -> float:
    """Seconds taken by numpy on a 200k-element array and a Python loop."""
    t0 = time.perf_counter()
    total = 0.0
    for _ in range(3):
        total += float(np.sum(np.exp(-_X) * _X**1.5))
    k = 0
    for i in range(10_000):
        k += i * i
    return time.perf_counter() - t0


if __name__ == "__main__":
    kernel()
