"""Nonlinear reactions, free-energy densities, shaping functions, and energies.

Conventions: the reaction is f = -F'.  Each potential carries its pointwise
bound ``beta`` (the invariant region is [-beta, beta]) and the Lipschitz
bound of f on that interval, which is the minimal admissible stabilizing
constant kappa.
"""

from __future__ import annotations

import numpy as np
from scipy.optimize import brentq

from .errors import DomainBoundError, NumericRangeError, positive
from .grid import Grid


class DoubleWell:
    """Quartic double-well free energy, F(u) = (1 - u^2)^2 / 4."""

    name = "double-well"
    beta = 1.0
    lipschitz = 2.0  # sup of |f'| = |1 - 3u^2| on [-1, 1], attained at u = +-1

    def f(self, u):
        u = np.asarray(u)
        return u * (1.0 - u * u)

    def F(self, u):
        w = 1.0 - np.asarray(u) ** 2
        return 0.25 * w * w


class FloryHuggins:
    """Logarithmic Flory-Huggins free energy with critical mixing parameters.

    Requires theta_c > theta > 0; the reaction's positive root beta then lies
    strictly inside (0, 1), keeping the log singularities at +-1 outside the
    invariant interval.
    """

    name = "flory-huggins"

    def __init__(self, theta: float = 0.8, theta_c: float = 1.6):
        if not (theta_c > theta > 0):
            raise ValueError(f"need theta_c > theta > 0, got theta={theta}, theta_c={theta_c}")
        self.theta = float(theta)
        self.theta_c = float(theta_c)
        self.beta = self._compute_beta()
        # f' = theta_c - theta / (1 - u^2) is monotone in u^2, so |f'| peaks
        # at an endpoint of [0, beta].
        self.lipschitz = max(abs(self._fprime(0.0)), abs(self._fprime(self.beta)))

    def _compute_beta(self) -> float:
        # f(0+) > 0 and f(u) -> -inf as u -> 1-, so a sign change exists.
        lo, hi = 1e-12, 1.0 - 1e-12
        if self.f(lo) <= 0 or self.f(hi) >= 0:
            raise ValueError("no sign change of f on (0, 1); invalid parameters")
        beta = float(brentq(self.f, lo, hi, xtol=1e-12))
        # brentq stops within xtol of the root on either side; the invariant
        # interval needs f(beta) <= 0 (and f(-beta) >= 0, f being odd), and
        # f(hi) < 0 was checked above.
        return min(beta + 2e-12, hi) if self.f(beta) > 0 else beta

    def _fprime(self, u: float) -> float:
        return -self.theta / (1.0 - u * u) + self.theta_c

    def _check_domain(self, u):
        if np.any(np.abs(u) >= 1.0):
            raise DomainBoundError(
                "Flory-Huggins evaluation outside (-1, 1): "
                f"max |u| = {float(np.max(np.abs(u)))}")

    def f(self, u):
        u = np.asarray(u, dtype=float)
        self._check_domain(u)
        return 0.5 * self.theta * np.log((1.0 - u) / (1.0 + u)) + self.theta_c * u

    def F(self, u):
        u = np.asarray(u, dtype=float)
        self._check_domain(u)
        # (1+u) log1p(u) + (1-u) log1p(-u), accumulated in place; the two
        # terms swap under u -> -u, so F(-u) == F(u) exactly.
        ent = np.log1p(u)
        ent *= 1.0 + u
        other = np.log1p(-u)
        other *= 1.0 - u
        ent += other
        del other
        ent *= 0.5 * self.theta
        ent -= 0.5 * self.theta_c * u**2
        return ent


def make_potential(kind: str, theta: float = 0.8, theta_c: float = 1.6):
    if kind == "double-well":
        return DoubleWell()
    if kind == "flory-huggins":
        return FloryHuggins(theta, theta_c)
    raise ValueError(f"unknown potential {kind!r}")


# -- shaping functions --------------------------------------------------------


class ConstantSigma:
    """Positive constant shaping function; the ratio degenerates to exactly 1."""

    name = "const"

    def ratio(self, r: float, e1: float) -> float:
        return 1.0


class ExpSigma:
    """sigma(x) = exp(a x), a > 0; the ratio is one exponential of a difference."""

    name = "exp"

    def __init__(self, a: float = 1.0):
        self.a = positive("exp sigma rate a", a)

    def ratio(self, r: float, e1: float) -> float:
        # Evaluated as exp(a*(r - e1)) so O(1) arguments with large a never
        # overflow through the separate factors.
        g = float(np.exp(self.a * (r - e1)))
        if not np.isfinite(g) or g <= 0.0:
            raise NumericRangeError(f"shaping ratio overflowed: a={self.a}, r-e1={r - e1}")
        return g


class _RatioSigma:
    def ratio(self, r: float, e1: float) -> float:
        g = self.value(r) / self.value(e1)
        if not np.isfinite(g) or g <= 0.0:
            raise NumericRangeError(f"shaping ratio non-finite: r={r}, e1={e1}")
        return g


class ArctanSigma(_RatioSigma):
    name = "arctan"

    def value(self, x: float) -> float:
        return float(0.5 * np.pi + np.arctan(x))


class TanhSigma(_RatioSigma):
    name = "tanh"

    def value(self, x: float) -> float:
        return float(1.0 + np.tanh(x))


def make_sigma(kind: str, a: float = 1.0):
    if kind == "const":
        return ConstantSigma()
    if kind == "exp":
        return ExpSigma(a)
    if kind == "arctan":
        return ArctanSigma()
    if kind == "tanh":
        return TanhSigma()
    raise ValueError(f"unknown sigma {kind!r}")


# -- energies -----------------------------------------------------------------


def bulk_energy(grid: Grid, potential, v: np.ndarray) -> float:
    """Integral of the free-energy density, <F(v), 1>."""
    return grid.integrate(potential.F(v))


def interface_energy(grid: Grid, v: np.ndarray, eps: float) -> float:
    return 0.5 * eps * eps * grid.grad_norm2_sq(v)


def total_energy(grid: Grid, potential, v: np.ndarray, eps: float) -> float:
    return interface_energy(grid, v, eps) + bulk_energy(grid, potential, v)


def modified_energy(grid: Grid, v: np.ndarray, r: float, eps: float) -> float:
    return interface_energy(grid, v, eps) + r
