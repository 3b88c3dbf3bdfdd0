"""A fixed numpy/scipy kernel that measures how fast the machine runs now.

On a shared host the same code runs up to ~1.7x slower for tens of seconds
at a time, and every kind of work in the process slows together.  Timing
this kernel, which does not use acflow, just before and after each
operation gives the local speed; dividing an operation's time by it turns
the time into seconds at the reference speed, where the kernel takes
``REFERENCE_S``.  The kernel works on fields of the workload's size with
the workload's transform, so it moves bytes through the caches the way the
operation does.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
import scipy.fft

# Kernel time at the reference speed, by (M, Neumann): the fastest of 80
# runs on a 2-vCPU Intel Xeon VM (4 MiB L2, 300 MiB L3), numpy 2.4, scipy 1.17.
REFERENCE_S = {
    (16, False): 0.04725,
    (16, True): 0.05448,
    (32, True): 0.05693,
    (128, False): 0.1645,
    (128, True): 0.1948,
    (512, True): 0.1821,
}
# About 0.1-0.2 s of work per measurement at each grid size.
ITERATIONS = {16: 1024, 32: 1024, 128: 512, 512: 16}


class Calibration:
    """The kernel for an M x M grid with periodic (rfft) or Neumann (DCT-II)
    transforms."""

    def __init__(self, m: int, neumann: bool):
        if neumann:
            self._forward = lambda v: scipy.fft.dctn(v, type=2, norm="ortho")
            self._inverse = lambda c: scipy.fft.idctn(c, type=2, norm="ortho")
            shape = (m, m)
        else:
            self._forward = np.fft.rfft2
            self._inverse = lambda c: np.fft.irfft2(c, s=(m, m))
            shape = (m, m // 2 + 1)
        rng = np.random.Generator(np.random.Philox(0))
        self._base = rng.uniform(-0.8, 0.8, (m, m))
        self._mult = np.exp(-rng.random(shape))
        self._iterations = ITERATIONS[m]
        self.reference_s = REFERENCE_S[(m, neumann)]

    def _kernel(self) -> float:
        x = self._base
        acc = 0.0
        for _ in range(self._iterations):
            y = self._inverse(self._forward(x) * self._mult)
            x = 0.5 * y * (1.0 - y * y) + 0.5 * self._base
            acc += float(np.sum(np.log1p(-0.5 * x * x)))
        return acc

    def slowdown(self) -> float:
        """How many times slower than the reference speed the machine runs now."""
        t0 = perf_counter()
        self._kernel()
        return (perf_counter() - t0) / self.reference_s
