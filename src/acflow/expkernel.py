"""Spectral kernels of the stabilized operator L = c I - eps^2 Lap_h,
applied in the trigonometric eigenbasis (FFT / DCT-II)."""

from __future__ import annotations

import numpy as np

from .errors import positive
from .grid import Grid, row_strips


def phi1(z):
    """phi1(z) = (e^z - 1)/z with the removable singularity phi1(0) = 1.

    The quotient expm1(z)/z is accurate to an ulp or so for every nonzero z,
    however small, so only z == 0 needs a guard.
    """
    z = np.asarray(z, dtype=float)
    # (z == 0).any() is faster than z.all() on float64; its mask is not
    # held through expm1 unless the guard needs it.
    if not (z == 0.0).any():  # divide without the guard's extra passes
        out = np.expm1(z)
        out /= z
    else:
        zero = z == 0.0
        out = np.where(zero, 1.0, np.expm1(z) / np.where(zero, 1.0, z))
    return out if out.ndim else float(out)


class StabilizedOperator:
    """L = c I - eps^2 Lap_h with c > 0; symmetric positive definite."""

    def __init__(self, grid: Grid, c: float, eps2: float):
        self.grid = grid
        self.c = positive("stabilization coefficient", c)
        self.eps2 = positive("eps^2", eps2)

    def advance_spectral(self, tau: float, v_hat: np.ndarray, n_hat: np.ndarray,
                         resolvent: bool) -> tuple[np.ndarray, np.ndarray]:
        """a v + tau * b N with one inverse transform, given the spectra
        v_hat and n_hat (``grid.fast_forward`` of v and N): the exponential
        step (ei1, ei2), a = e^{-tau L} and b = phi1(-tau L), or with
        ``resolvent`` the backward-Euler step (stab1), a = b = (I + tau L)^{-1}.
        The sum is written over n_hat; v_hat is only read.  Returns the field
        and n_hat, the spectrum it was inverted from, which a step carries to
        the next one in place of transforming the field again."""
        positive("tau", tau)
        # z = -tau L, built per call and per strip of the spectrum: an
        # operator holds no field between uses.
        for lam, n, v in row_strips(self.grid.multiplier_eigenvalues, n_hat,
                                    v_hat):
            z = np.multiply(self.eps2, lam)
            np.subtract(self.c, z, out=z)
            z *= -tau
            n *= tau
            if resolvent:  # a = b = 1 / (1 - z), written over z
                np.subtract(1.0, z, out=z)
                a = np.divide(1.0, z, out=z)
                n *= a
            else:  # b = phi1(z) first, then a = e^z written over z
                n *= phi1(z)
                a = np.exp(z, out=z)
            n += v * a
        return self.grid.fast_inverse(n_hat), n_hat
