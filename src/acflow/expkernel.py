"""Spectral kernels of the stabilized operator L = c I - eps^2 Lap_h.

The production path works in the trigonometric eigenbasis (FFT / DCT-II);
the dense matrix routines are small-grid oracles for ``acflow.verify`` and
are deliberately independent of both scipy.linalg and the spectral path.
"""

from __future__ import annotations

import numpy as np

from .errors import positive
from .grid import Grid, dense_laplacian, row_strips


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

    def advance(self, tau: float, v: np.ndarray, nonlin: np.ndarray) -> np.ndarray:
        """e^{-tau L} v + tau * phi1(-tau L) nonlin, fields in and out: the
        oracle's form of ``advance_spectral``, which leaves v and nonlin as
        they are."""
        forward = self.grid.fast_forward
        return self.advance_spectral(tau, forward(v), forward(nonlin),
                                     resolvent=False)[0]

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
