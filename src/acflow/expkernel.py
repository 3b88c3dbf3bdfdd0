"""Exponential kernels of the stabilized operator L = c I - eps^2 Lap_h.

The production path works in the trigonometric eigenbasis (FFT / DCT-II);
the dense matrix routines are small-grid oracles for ``acflow.verify`` and
are deliberately independent of both scipy.linalg and the spectral path.
"""

from __future__ import annotations

import numpy as np

from .grid import Grid, dense_laplacian

_PHI1_SERIES_CUTOFF = 1e-5


def phi1(z):
    """phi1(z) = (e^z - 1)/z with the removable singularity filled in.

    Below |z| = 1e-5 an 8-term Taylor series is used; its truncation error
    there is ~1e-45, far under double roundoff.
    """
    z = np.asarray(z, dtype=float)
    small = np.abs(z) < _PHI1_SERIES_CUTOFF
    if not np.any(small):  # no z == 0 either: divide without the guard
        out = np.expm1(z)
        out /= z
    else:
        out = np.expm1(z) / np.where(z == 0.0, 1.0, z)
        zs = z[small] if out.ndim else z
        series = np.zeros_like(zs)
        term = np.ones_like(zs)
        for k in range(1, 9):  # 1/k! * z^(k-1), k = 1..8
            series = series + term
            term = term * zs / (k + 1)
        if out.ndim:
            out[small] = series
        else:
            out = series
    return out if out.ndim else float(out)


class StabilizedOperator:
    """L = c I - eps^2 Lap_h with c > 0; symmetric positive definite."""

    def __init__(self, grid: Grid, c: float, eps2: float):
        if c <= 0:
            raise ValueError(f"stabilization coefficient must be positive, got {c}")
        if eps2 <= 0:
            raise ValueError(f"eps^2 must be positive, got {eps2}")
        self.grid = grid
        self.c = float(c)
        self.eps2 = float(eps2)
        # Eigenvalues of L in the fast-transform layout; all >= c > 0.
        self._eigs = self.c - self.eps2 * grid.multiplier_eigenvalues

    def advance(self, tau: float, v: np.ndarray, nonlin: np.ndarray) -> np.ndarray:
        """e^{-tau L} v + tau * phi1(-tau L) nonlin with one inverse transform."""
        return self.advance_spectral(tau, self.grid.fast_forward(v), nonlin)

    def advance_spectral(self, tau: float, v_hat: np.ndarray,
                         nonlin: np.ndarray) -> np.ndarray:
        """``advance`` given v_hat = ``grid.fast_forward(v)``, so steps that
        start two stages from the same v transform it once."""
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        z = -tau * self._eigs
        combined = self.grid.fast_forward(nonlin)
        combined *= tau
        combined *= phi1(z)
        combined += v_hat * np.exp(z, out=z)
        return self.grid.fast_inverse(combined)

    def solve_shifted(self, tau: float, v: np.ndarray) -> np.ndarray:
        """(I + tau L)^{-1} v, the backward-Euler resolvent."""
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        return self.grid.apply_multiplier(v, 1.0 / (1.0 + tau * self._eigs))

    def dense_matrix(self) -> np.ndarray:
        """Explicit (M^2, M^2) matrix of L. Oracle only; refuses M > 16."""
        n = self.grid.m ** 2
        return self.c * np.eye(n) - self.eps2 * dense_laplacian(self.grid)


def dense_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor core.

    The argument is scaled by 2^-s until its 1-norm is below 1/2, a 20-term
    Taylor series is summed, and the result is squared s times.  Oracle-grade
    accuracy, not performance.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2.0 ** s)
    n = a.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 21):
        term = term @ b / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def dense_phi1m(a: np.ndarray) -> np.ndarray:
    """phi1(A) = A^{-1}(e^A - I) for invertible A. Oracle only."""
    a = np.asarray(a, dtype=float)
    return np.linalg.solve(a, dense_expm(a) - np.eye(a.shape[0]))
