"""Nonlinear reactions, shaping functions, and energies.

Conventions: the reaction is f = -F'.  Each potential carries its pointwise
bound ``beta`` (the invariant region is [-beta, beta]) and the Lipschitz
bound of f on that interval, which is the minimal admissible stabilizing
constant kappa.
"""

from __future__ import annotations

import math
import sys

import numpy as np

from .errors import NumericRangeError, positive
from .grid import Grid, row_strips


def _value(out: np.ndarray):
    """A potential's result: the field, or the scalar of a 0-d input.  The
    bodies write through ``out=``, which needs an array even for a scalar u."""
    return out if out.ndim else out[()]


class DoubleWell:
    """Quartic double-well free energy, F(u) = (1 - u^2)^2 / 4."""

    name = "double-well"
    beta = 1.0
    lipschitz = 2.0  # sup of |f'| = |1 - 3u^2| on [-1, 1], attained at u = +-1

    def f(self, u):
        # u (1 - u^2), each operation written over one buffer.
        u = np.asarray(u, dtype=float)
        out = np.empty_like(u)
        for us, outs in row_strips(u, out):
            np.multiply(us, us, out=outs)
            np.subtract(1.0, outs, out=outs)
            outs *= us
        return _value(out)

    def energy(self, grid: Grid, u: np.ndarray, fu: np.ndarray) -> float:
        """h^2 sum F(u) from fu = f(u), with no field of F: two inner products.
        See ``bulk_energy`` for the identity and its error near u = +-1."""
        return 0.25 * (grid.length * grid.length - grid.inner(u, u) - grid.inner(u, fu))


class FloryHuggins:
    """Logarithmic Flory-Huggins free energy with critical mixing parameters.

    Requires theta_c > theta > 0, and theta_c/theta from 1 + 1e-7 to ~14.16,
    so that the reaction's positive root beta lies in [1e-12, 1 - 1e-12],
    keeping the log singularities at +-1 outside the invariant interval.
    beta comes from ``_brentq``, a Brent solve that returns what
    scipy.optimize.brentq does, bit for bit, without loading scipy.optimize.
    """

    name = "flory-huggins"

    def __init__(self, theta: float = 0.8, theta_c: float = 1.6):
        if not (theta_c > theta > 0):
            raise ValueError(f"need theta_c > theta > 0, got theta={theta}, theta_c={theta_c}")
        self.theta = float(theta)
        self.theta_c = float(theta_c)
        self.beta = self._compute_beta()
        # f' = theta_c - theta / (1 - u^2) falls, is concave and integrates to
        # f(beta) - f(0) = 0 on [0, beta], so f'(beta) <= -f'(0) < 0: |f'| peaks there.
        self.lipschitz = abs(self._fprime(self.beta))

    def _compute_beta(self) -> float:
        lo, hi = 1e-12, 1.0 - 1e-12
        # Below a gap of 1e-7, beta ~ sqrt(3 gap) comes out of f's rounding and
        # can lie more than MBP_TOL = 1e-12 below the root; theta_c - theta is
        # exact where it matters, for theta_c <= 2 theta.
        gap = (self.theta_c - self.theta) / self.theta
        if gap < 1e-7:
            raise ValueError(f"(theta_c - theta)/theta = {gap!r} < 1e-07: "
                             "beta would be rounding noise")
        if self.f(lo) <= 0:  # theta lo underflows
            raise ValueError(f"f(1e-12) <= 0: theta={self.theta!r} is too small")
        if self.f(hi) >= 0:
            raise ValueError(f"theta_c/theta = {self.theta_c / self.theta!r} >= "
                             f"artanh(hi)/hi = {math.atanh(hi) / hi!r} "
                             "at hi = 1 - 1e-12: the root of f lies within 1e-12 of 1")
        beta = _brentq(self.f, lo, hi, xtol=1e-12)
        # The Brent solve stops within xtol of the root on either side; the
        # invariant interval needs f(beta) <= 0 (and f(-beta) >= 0, f being
        # odd), and f(hi) < 0 was checked above.
        return min(beta + 2e-12, hi) if self.f(beta) > 0 else beta

    def _fprime(self, u: float) -> float:
        return -self.theta / (1.0 - u * u) + self.theta_c

    def _check_domain(self, u):
        """``NumericRangeError`` naming max |u| if u leaves (-1, 1), from one
        read of its max and min and no |u| copy.  fmax and fmin skip NaN as
        |u| >= 1 does, so a NaN entry alone does not raise; an empty u
        reduces to the initial values and passes."""
        hi = float(np.fmax.reduce(u, axis=None, initial=-np.inf))
        lo = float(np.fmin.reduce(u, axis=None, initial=np.inf))
        if hi >= 1.0 or lo <= -1.0:
            raise NumericRangeError("Flory-Huggins evaluation outside (-1, 1): "
                                    f"max |u| = {max(hi, -lo)}")

    def f(self, u):
        u = np.asarray(u, dtype=float)
        self._check_domain(u)  # before any artanh runs
        # theta_c u - theta artanh(u), accumulated in place; artanh keeps the
        # relative accuracy that (1/2) log((1 - u)/(1 + u)) loses near 0.
        out = np.empty_like(u)
        for us, outs in row_strips(u, out):
            np.arctanh(us, out=outs)
            outs *= -self.theta
            outs += self.theta_c * us
        return _value(out)

    def energy(self, grid: Grid, u: np.ndarray, fu: np.ndarray) -> float:
        """h^2 sum F(u) from fu = f(u), with no field of F: one log1p pass and
        two inner products.  See ``bulk_energy`` for the identity."""
        logs = 0.0
        for (us,) in row_strips(u):
            w = np.multiply(us, us)
            np.negative(w, out=w)
            np.log1p(w, out=w)
            logs += float(np.sum(w))
        return (0.5 * self.theta * grid.h * grid.h * logs
                + 0.5 * self.theta_c * grid.inner(u, u) - grid.inner(u, fu))


def _brentq(f, a: float, b: float, xtol: float) -> float:
    """A root of f between a and b, f(a) and f(b) nonzero and of opposite
    signs, by Brent's method (Brent, Algorithms for Minimization without
    Derivatives, 1973, ch. 4).  It takes scipy.optimize.brentq's steps one for
    one, with that function's rtol = 4 eps and 100 iterations, in the same
    float arithmetic, so it returns the same root bit for bit.  Where scipy's
    C code divides by zero, its trial step is +-inf or NaN and fails the
    short-step test, so this bisects there too."""
    rtol, maxiter = 4 * sys.float_info.epsilon, 100
    xpre, xcur = a, b
    fpre, fcur = float(f(xpre)), float(f(xcur))
    xblk = fblk = spre = scur = 0.0
    for _ in range(maxiter):
        if fpre != 0 and fcur != 0 and (fpre < 0) != (fcur < 0):
            xblk, fblk = xpre, fpre
            spre = scur = xcur - xpre
        if abs(fblk) < abs(fcur):  # keep the best point in xcur
            xpre, xcur, xblk = xcur, xblk, xcur
            fpre, fcur, fblk = fcur, fblk, fcur
        delta = (xtol + rtol * abs(xcur)) / 2
        sbis = (xblk - xcur) / 2
        if fcur == 0 or abs(sbis) < delta:
            return xcur
        stry = math.nan  # bisect unless interpolation gives a short step
        if abs(spre) > delta and abs(fcur) < abs(fpre):
            try:
                if xpre == xblk:  # secant
                    stry = -fcur * (xcur - xpre) / (fcur - fpre)
                else:  # inverse quadratic
                    dpre = (fpre - fcur) / (xpre - xcur)
                    dblk = (fblk - fcur) / (xblk - xcur)
                    stry = -fcur * (fblk * dblk - fpre * dpre) / (dblk * dpre * (fblk - fpre))
            except ZeroDivisionError:
                pass
        if 2 * abs(stry) < min(abs(spre), 3 * abs(sbis) - delta):
            spre, scur = scur, stry
        else:
            spre = scur = sbis
        xpre, fpre = xcur, fcur
        xcur += scur if abs(scur) > delta else (delta if sbis > 0 else -delta)
        fcur = float(f(xcur))
    raise RuntimeError(f"no root within {maxiter} iterations, last x = {xcur!r}")


POTENTIALS = (DoubleWell.name, FloryHuggins.name)


def make_potential(kind: str, theta: float = 0.8, theta_c: float = 1.6):
    if kind not in POTENTIALS:
        raise ValueError(f"unknown potential {kind!r}")
    return DoubleWell() if kind == DoubleWell.name else FloryHuggins(theta, theta_c)


# -- shaping functions --------------------------------------------------------

# exp(x) is a positive normal float for every x in [_LOG_MIN, _LOG_MAX].
_LOG_MIN, _LOG_MAX = math.log(sys.float_info.min), math.log(sys.float_info.max)


class _Sigma:
    """A shaping function sigma > 0, used only through g = sigma(r)/sigma(e1):
    ``log_ratio`` gives log g in a form that neither overflows nor cancels."""

    def ratio(self, r: float, e1: float) -> float:
        x = self.log_ratio(r, e1)
        if not _LOG_MIN <= x <= _LOG_MAX:  # NaN fails both comparisons
            raise NumericRangeError(f"shaping ratio {self.name}(r)/{self.name}(e1) "
                                    f"out of range: r={r!r}, e1={e1!r}")
        return float(np.exp(x))


class ConstantSigma(_Sigma):
    """A positive constant: g = exp(0.0) = 1 exactly, whatever r and e1 are."""
    name = "const"

    def log_ratio(self, r: float, e1: float) -> float:
        return 0.0


class ExpSigma(_Sigma):
    """exp(a x), a > 0: log g = a (r - e1), so no factor overflows at large a."""
    name = "exp"

    def __init__(self, a: float = 1.0):
        self.a = positive("exp sigma rate a", a)

    def log_ratio(self, r: float, e1: float) -> float:
        return self.a * (r - e1)


class ArctanSigma(_Sigma):
    """pi/2 + arctan(x) = atan2(1, -x), which does not cancel as x -> -inf."""
    name = "arctan"

    def log_ratio(self, r: float, e1: float) -> float:
        return math.log(math.atan2(1.0, -r) / math.atan2(1.0, -e1))


class TanhSigma(_Sigma):
    """1 + tanh(x) = 2 exp(min(2x, 0)) / (1 + exp(-2|x|)), with no cancellation."""
    name = "tanh"

    def log_ratio(self, r: float, e1: float) -> float:
        return (min(2.0 * r, 0.0) - min(2.0 * e1, 0.0)
                + math.log1p(math.exp(-2.0 * abs(e1))) - math.log1p(math.exp(-2.0 * abs(r))))


_SIGMA_TYPES = {sigma.name: sigma
                for sigma in (ConstantSigma, ExpSigma, ArctanSigma, TanhSigma)}
SIGMAS = tuple(_SIGMA_TYPES)


def make_sigma(kind: str, a: float = 1.0):
    if kind not in SIGMAS:
        raise ValueError(f"unknown sigma {kind!r}")
    return ExpSigma(a) if kind == ExpSigma.name else _SIGMA_TYPES[kind]()


# -- energies -----------------------------------------------------------------


def bulk_energy(grid: Grid, potential, v: np.ndarray, fv=None) -> float:
    """E1(v) = <F(v), 1> = h^2 sum F(v), by the potential's ``energy`` rule
    from ``fv`` = f(v), evaluated here unless given.  No rule forms the field
    F (an oracle in ``acflow.verify``); each writes F with f:
    - double well: 4F(u) = 1 - u^2 - u f(u), so
      E1(v) = (L^2 - (v, v)_h - (v, f(v))_h) / 4.  Near v = +-1 the terms
      cancel, leaving an absolute error of a few ulp of L^2/4; E1 enters only g
      and the energy column, and MBP and energy decay hold for any g > 0.
    - Flory-Huggins: F(u) = (theta/2) log1p(-u^2) + (theta_c/2) u^2 - u f(u),
      so E1(v) = h^2 [(theta/2) sum log1p(-v^2) + (theta_c/2) sum v^2
      - sum v f(v)]."""
    return potential.energy(grid, v, potential.f(v) if fv is None else fv)


def interface_energy(grid: Grid, v_hat: np.ndarray, eps: float) -> float:
    """(eps^2/2) ||grad_h v||^2 from the spectrum v_hat = ``grid.fast_forward(v)``."""
    return 0.5 * eps * eps * grid.grad_norm2_sq(v_hat)


def total_energy(grid: Grid, potential, v: np.ndarray, eps: float) -> float:
    return interface_energy(grid, grid.fast_forward(v), eps) + bulk_energy(grid, potential, v)
