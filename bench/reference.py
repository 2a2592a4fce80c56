"""A frozen stand-in for the library's hot loop, used to gauge machine speed.

The host this benchmark runs on is shared: over a few minutes the same
work can take 1.6 times as long.  `kernel()` repeats a fixed amount of the
kind of work oscillint spends its time on (a Dormand-Prince step loop on
2-vectors with a Hermite event scan, in Python over small numpy arrays).
It imports nothing from oscillint, so a change to the library cannot move
it; only the machine can.  run.py samples it between problems and rescales
its timings by REFERENCE_S / (median kernel time of the run).
"""

from __future__ import annotations

import math
import time

import numpy as np

# median kernel time on the machine the baseline in README.md was taken on
REFERENCE_S = 0.02

_C = np.array([0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0])
_A = [np.array([]), np.array([1 / 5]), np.array([3 / 40, 9 / 40]),
      np.array([44 / 45, -56 / 15, 32 / 9]),
      np.array([19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729]),
      np.array([9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176,
                -5103 / 18656]),
      np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784,
                11 / 84])]
_B = np.array([35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84,
               0.0])
_E = _B - np.array([5179 / 57600, 0.0, 7571 / 16695, 393 / 640,
                    -92097 / 339200, 187 / 2100, 1 / 40])
STEPS = 250


def _field(t: float, y: np.ndarray) -> np.ndarray:
    out = np.asarray(np.array([y[1] + 0.1 * math.sin(t),
                               -2.0 * y[0] + math.cos(t)]), dtype=float)
    if not np.all(np.isfinite(out)):
        raise FloatingPointError("reference field left the reals")
    return out


def kernel() -> float:
    """Wall seconds for STEPS fixed-size steps with an event scan."""
    t0 = time.perf_counter()
    y, t, h = np.array([1.0, 0.0]), 0.0, 0.05
    k = np.empty((7, 2))
    crossings = 0
    for _ in range(STEPS):
        k[0] = _field(t, y)
        for i in range(1, 7):
            k[i] = _field(t + _C[i] * h, y + h * (_A[i] @ k[:i]))
        y_new = y + h * (_B @ k)
        scale = 1e-10 + 1e-8 * np.maximum(np.abs(y), np.abs(y_new))
        float(np.sqrt(np.mean((h * (_E @ k) / scale) ** 2)))
        s = np.linspace(0.0, 1.0, 7)
        vals = [float((2 * u ** 3 - 3 * u ** 2 + 1) * y[0]
                      + (u ** 3 - 2 * u ** 2 + u) * h * k[0][0]
                      + (-2 * u ** 3 + 3 * u ** 2) * y_new[0]
                      + (u ** 3 - u ** 2) * h * k[6][0]) for u in s]
        crossings += sum(a * b < 0 for a, b in zip(vals, vals[1:]))
        y, t = y_new, t + h
    return time.perf_counter() - t0
