"""The calibration loop, in a module that imports only ``time`` and numpy,
so a fresh interpreter can run it next to a timed ``import equnfold.cli``
without pre-importing anything the package would import itself.

On a shared 2-vCPU Xeon host, speed drifts by up to 2x within minutes.  A
time divided by this loop's mean time, sampled over the same stretch, does
not move with that drift, but moves with the program's own speed.
"""

import time

import numpy as np


def calibrate():
    """Time a fixed Python-and-numpy loop that does not touch equnfold."""
    a = np.linspace(0.0, 1.0, 500)
    t0 = time.perf_counter()
    for i in range(6000):
        x = a * a[i % 500] - a[(i * 7) % 500]
        np.count_nonzero((x >= 0.0) & (x <= 0.5))
    return time.perf_counter() - t0


def bracket(n=3):
    """``n`` calibration times; taken before and after a timed step."""
    return [calibrate() for _ in range(n)]
