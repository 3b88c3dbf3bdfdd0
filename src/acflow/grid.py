"""Uniform 2D grid, discrete operators, and the diagonalizing trigonometric basis.

A grid function is a plain ``(M, M)`` float array ``v`` with ``v[i, j]``
living at the mesh point ``(x_i, y_j)``.  The first array axis is x.
Periodic grids place nodes at ``x_i = (i+1) h``; homogeneous-Neumann grids
are cell-centered, ``x_i = (i + 1/2) h``, and realize the boundary by
mirror reflection, which the type-II cosine transform diagonalizes.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

PERIODIC = "periodic"
NEUMANN = "neumann"


class Grid:
    """Square uniform grid on (0, L)^2 with M points per dimension."""

    def __init__(self, m: int, length: float = 1.0, boundary: str = PERIODIC):
        if m < 2:
            raise ValueError(f"need at least 2 points per dimension, got M={m}")
        if length <= 0:
            raise ValueError(f"domain side length must be positive, got {length}")
        if boundary not in (PERIODIC, NEUMANN):
            raise ValueError(f"unknown boundary {boundary!r}")
        self.m = int(m)
        self.length = float(length)
        self.boundary = boundary
        # L and M are stored; h is derived so h*M == L exactly.
        self.h = self.length / self.m
        # Laplacian eigenvalues in the layout used by ``apply_multiplier``.
        self.multiplier_eigenvalues = self._build_multiplier_eigenvalues()

    # -- geometry ---------------------------------------------------------

    def coords(self) -> np.ndarray:
        """1D node coordinates along one axis."""
        i = np.arange(self.m, dtype=float)
        if self.boundary == PERIODIC:
            return (i + 1.0) * self.h
        return (i + 0.5) * self.h

    def meshgrid(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.coords()
        return np.meshgrid(x, x, indexing="ij")

    def check(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        if v.shape != (self.m, self.m):
            raise ValueError(f"grid function shape {v.shape} != {(self.m, self.m)}")
        if not np.all(np.isfinite(v)):
            raise ValueError("grid function contains non-finite entries")
        return v

    # -- stencil operators --------------------------------------------------

    def _shift(self, v: np.ndarray, offset: int, axis: int) -> np.ndarray:
        if self.boundary == PERIODIC:
            return np.roll(v, -offset, axis=axis)
        # Mirror reflection: the ghost cell copies the adjacent interior cell.
        return np.take(v, np.clip(np.arange(self.m) + offset, 0, self.m - 1),
                       axis=axis)

    def laplacian(self, v: np.ndarray) -> np.ndarray:
        """Five-point stencil (v_E + v_W + v_N + v_S - 4 v) / h^2."""
        out = (self._shift(v, 1, 0) + self._shift(v, -1, 0)
               + self._shift(v, 1, 1) + self._shift(v, -1, 1) - 4.0 * v)
        return out / (self.h * self.h)

    def gradient(self, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Forward differences; the Neumann ghost makes the last difference 0."""
        gx = (self._shift(v, 1, 0) - v) / self.h
        gy = (self._shift(v, 1, 1) - v) / self.h
        return gx, gy

    # -- inner products -----------------------------------------------------

    # np.sum uses a fixed pairwise (tree) reduction, so all reductions below
    # are deterministic and bit-reproducible for identical inputs.

    def integrate(self, v: np.ndarray) -> float:
        return self.h * self.h * float(np.sum(v))

    def inner(self, v: np.ndarray, w: np.ndarray) -> float:
        return self.h * self.h * float(np.sum(v * w))

    def norm2(self, v: np.ndarray) -> float:
        return float(np.sqrt(self.inner(v, v)))

    def norm_inf(self, v: np.ndarray) -> float:
        return float(np.max(np.abs(v)))

    def grad_norm2_sq(self, v: np.ndarray) -> float:
        gx, gy = self.gradient(v)
        return self.inner(gx, gx) + self.inner(gy, gy)

    # -- eigenbasis and fast diagonal application (hot path) -----------------

    def _build_multiplier_eigenvalues(self) -> np.ndarray:
        # 1D eigenvalues -4/h^2 sin^2(pi k / P), P = M (periodic) or 2M (DCT-II).
        period = self.m if self.boundary == PERIODIC else 2 * self.m
        k = np.arange(self.m, dtype=float)
        lam = -(4.0 / self.h**2) * np.sin(np.pi * k / period) ** 2
        if self.boundary == PERIODIC:
            # rfft2 layout: full axis 0, half axis 1.
            half = lam[: self.m // 2 + 1]
            return lam[:, None] + half[None, :]
        return lam[:, None] + lam[None, :]

    def fast_forward(self, v: np.ndarray) -> np.ndarray:
        """Forward transform in the layout of ``multiplier_eigenvalues``."""
        if self.boundary == PERIODIC:
            return scipy.fft.rfft2(v)
        return scipy.fft.dctn(v, type=2, norm="ortho")

    def fast_inverse(self, c: np.ndarray) -> np.ndarray:
        if self.boundary == PERIODIC:
            return scipy.fft.irfft2(c, s=(self.m, self.m))
        return scipy.fft.idctn(c, type=2, norm="ortho")

    def apply_multiplier(self, v: np.ndarray, mult: np.ndarray) -> np.ndarray:
        """Apply a function of the Laplacian given its spectral multiplier.

        ``mult`` must have the layout of ``multiplier_eigenvalues``
        (real-FFT half spectrum for periodic grids, DCT-II for Neumann).
        """
        return self.fast_inverse(self.fast_forward(v) * mult)


def dense_laplacian(grid: Grid) -> np.ndarray:
    """Explicit (M^2, M^2) matrix of the five-point Laplacian. Oracle only."""
    if grid.m > 16:
        raise ValueError(f"dense Laplacian refused for M={grid.m} > 16")
    m = grid.m
    n = m * m
    a = np.zeros((n, n))
    for i in range(m):
        for j in range(m):
            row = i * m + j
            a[row, row] -= 4.0
            for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                ii, jj = i + di, j + dj
                if grid.boundary == PERIODIC:
                    ii %= m
                    jj %= m
                else:
                    ii = min(max(ii, 0), m - 1)
                    jj = min(max(jj, 0), m - 1)
                a[row, ii * m + jj] += 1.0
    return a / (grid.h * grid.h)
