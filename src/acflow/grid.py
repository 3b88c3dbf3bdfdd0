"""Uniform 2D grid, its inner products, and the diagonalizing trigonometric basis.

A grid function is a plain ``(M, M)`` float array ``v`` with ``v[i, j]``
living at the mesh point ``(x_i, y_j)``.  The first array axis is x.
Periodic grids place nodes at ``x_i = (i+1) h``; homogeneous-Neumann grids
are cell-centered, ``x_i = (i + 1/2) h``; ``Grid.nodes()`` gives these x_i,
which both axes share.  Neumann grids realize the boundary by
mirror reflection, which the type-II cosine transform diagonalizes.  The
five-point Laplacian acts only through its eigenvalues in that basis; its
stencil and dense matrix are oracles in ``acflow.verify``.
"""

from __future__ import annotations

import numpy as np
import scipy.fft

from .errors import positive, whole

PERIODIC = "periodic"
NEUMANN = "neumann"
BOUNDARIES = (PERIODIC, NEUMANN)


class Grid:
    """Square uniform grid on (0, L)^2 with M points per dimension."""

    def __init__(self, m: int, length: float = 1.0, boundary: str = PERIODIC):
        self.m = whole("M (points per dimension)", m, 2)
        if boundary not in BOUNDARIES:
            raise ValueError(f"unknown boundary {boundary!r}")
        self.length = positive("domain side length", length)
        self.boundary = boundary
        # L and M are stored; h is derived so h*M == L exactly.
        self.h = self.length / self.m
        if not (0.0 < self.h * self.h < np.inf and 8.0 / (self.h * self.h) < np.inf):
            raise ValueError(f"L={self.length!r}, M={self.m} give h={self.h!r}: h*h "
                             "and 8/(h*h) must be finite and positive")
        # Laplacian eigenvalues in the layout of ``fast_forward``'s spectra.
        self.multiplier_eigenvalues, self._energy_weights = self._build_tables()

    # -- geometry ---------------------------------------------------------

    def nodes(self) -> np.ndarray:
        """The node coordinates x_i of one axis; both axes share them."""
        offset = 1.0 if self.boundary == PERIODIC else 0.5
        return (np.arange(self.m, dtype=float) + offset) * self.h

    # -- inner products -----------------------------------------------------

    # Every reduction reads its fields once and allocates nothing.

    def inner(self, v: np.ndarray, w: np.ndarray) -> float:
        # einsum gives the same bits for the same inputs on every run; np.dot
        # (BLAS ddot) does not, as its bits change with the thread count.
        return self.h * self.h * float(np.einsum("ij,ij->", v, w))

    def norm2(self, v: np.ndarray) -> float:
        return float(np.sqrt(self.inner(v, v)))

    def norm_inf(self, v: np.ndarray) -> float:
        # max |v| = max(max v, -min v) without an |v| copy; abs() makes a
        # zero result +0.0 whatever the signs of the field's zeros.
        return abs(max(float(np.max(v)), -float(np.min(v))))

    # -- eigenbasis and fast transforms (hot path) ---------------------------

    def _build_tables(self) -> tuple[np.ndarray, np.ndarray]:
        """The eigenvalues (rfft2: full axis 0, half axis 1) and the weights W
        of ``grad_norm2_sq``, both from one 1D eigenvalue vector."""
        # 1D eigenvalues -4/h^2 sin^2(pi k / P), P = M (periodic) or 2M (DCT-II).
        periodic = self.boundary == PERIODIC
        k = np.arange(self.m, dtype=float)
        lam = -(4.0 / self.h**2) * np.sin(np.pi * k / (self.m if periodic else 2 * self.m)) ** 2
        table = lam[:, None] + lam[None, : self.m // 2 + 1 if periodic else self.m]
        if not periodic:
            return table, table  # the orthonormal DCT-II: W is lambda, not a copy
        # rfft2 is unnormalized, so its sum is M^2 too large, and it keeps one
        # column of each conjugate pair: every column but 0 and, for even M,
        # M/2 counts twice.  Each weight repeats for a coefficient's (re, im).
        k = np.arange(table.shape[1])
        w = np.where((k == 0) | (2 * k == self.m), 1.0, 2.0) / self.m**2
        return table, np.repeat(table * w, 2, axis=1)

    def grad_norm2_sq(self, v_hat: np.ndarray) -> float:
        """||grad_h v||^2 = -h^2 sum(W x x), x the float view of v_hat, by Parseval."""
        x = v_hat.view(float)
        return -(self.h * self.h * float(np.einsum("ij,ij,ij->", self._energy_weights, x, x)))

    def fast_forward(self, v: np.ndarray) -> np.ndarray:
        """Forward transform in the layout of ``multiplier_eigenvalues``."""
        if self.boundary == PERIODIC:
            return scipy.fft.rfft2(v)
        return scipy.fft.dctn(v, type=2, norm="ortho")

    def fast_inverse(self, c: np.ndarray) -> np.ndarray:
        if self.boundary == PERIODIC:
            return scipy.fft.irfft2(c, s=(self.m, self.m))
        return scipy.fft.idctn(c, type=2, norm="ortho")


# Elementwise chains run over row strips of at most this many elements,
# 128 KiB of float64: each pass of a chain and its temporaries stay in a
# core's L2 instead of streaming full-size fields through memory.
STRIP_SIZE = 2**14


def row_strips(*arrays: np.ndarray):
    """Aligned row pieces of arrays of one shape, covering every row once and
    in order, each of at most STRIP_SIZE elements (or one row, if a row is
    longer).  Arrays of STRIP_SIZE elements or fewer are one piece: the
    arrays themselves, with no view made."""
    a = arrays[0]
    if a.size <= STRIP_SIZE:
        return (arrays,)
    rows = max(1, STRIP_SIZE // (a.size // len(a)))
    return [tuple(x[i:i + rows] for x in arrays) for i in range(0, len(a), rows)]

