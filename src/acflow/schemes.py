"""One-step updates: ``step`` runs the scheme a ``SchemeConfig`` names (ei1,
ei2 or stab1), and a fine-step reference-solution driver does ei2.

All steps are pure functions (state in, state out).  The auxiliary scalar s
tracks the bulk energy; the shaping ratio g = sigma(s) / sigma(E1(u)) feeds
both the frozen linear operator and the nonlinear term.  Every state is
complete when made: it carries the reaction f(u), evaluated once, for the
next step's freeze and s-update; E1(u), summed from that f(u) by
``bulk_energy`` with no field of F, for the next step and the diagnostics
row; and the spectrum of u.  ``initial_state`` transforms u0; every later
spectrum is handed on by the step that made u from its kernel, so no step
transforms u again.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import NumericFailure, NumericRangeError, positive
from .expkernel import StabilizedOperator
from .grid import Grid
from .potentials import bulk_energy
from .timestep import steps_to

EI1 = "ei1"
EI2 = "ei2"
STAB1 = "stab1"
SCHEMES = (EI1, EI2, STAB1)
MBP_TOL = 1e-12  # slack of |u| <= beta: initial data, and every run's steps


@dataclass
class SchemeConfig:
    eps: float
    kappa: float
    potential: object
    sigma: object
    scheme: str = EI1

    def __post_init__(self):
        positive("eps", self.eps)
        positive("eps^2", self.eps * self.eps)
        positive("kappa", self.kappa)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class SolverState:
    """A point of a trajectory.  ``e1``, ``u_hat`` and ``fu`` describe ``u``:
    E1(u), ``grid.fast_forward(u)`` and ``potential.f(u)``, from
    ``initial_state`` or carried from the step that made u.  A caller who
    changes u makes a new state with ``initial_state`` rather than editing
    this one."""
    u: np.ndarray
    s: float
    e1: float
    u_hat: np.ndarray = field(repr=False)
    fu: np.ndarray = field(repr=False)
    t: float = 0.0
    step: int = 0
    g: float = 1.0  # shaping ratio used by the step that produced this state


def initial_state(grid: Grid, cfg: SchemeConfig, u0: np.ndarray) -> SolverState:
    """The state at t = 0; a ``ValueError`` unless |u0| <= beta + MBP_TOL.
    ``step`` does not check beta: build a ``SolverState`` to start beyond it."""
    u0 = grid.check(u0)
    beta, sup = cfg.potential.beta, grid.norm_inf(u0)
    if sup > beta + MBP_TOL:
        raise ValueError(f"initial data exceeds the bound beta={beta}: sup norm {sup}")
    fu = cfg.potential.f(u0)
    e1 = bulk_energy(grid, cfg.potential, u0, fu)
    return SolverState(u=u0, s=e1, e1=e1, u_hat=grid.fast_forward(u0), fu=fu)


def _frozen_at(grid: Grid, cfg: SchemeConfig, u: np.ndarray, s: float,
               fu: np.ndarray | None = None, e1: float | None = None):
    """Freeze a step at (u, s): the shaping ratio g, f(u), the operator
    kappa g I - eps^2 Lap_h and the spectrum of the nonlinear term
    N = g (f(u) + kappa u), which the advance overwrites; N itself is freed
    on return.  f(u) and then E1(u) from it are evaluated here unless given."""
    if fu is None:
        fu = cfg.potential.f(u)
    if e1 is None:
        e1 = bulk_energy(grid, cfg.potential, u, fu)
    g = cfg.sigma.ratio(s, e1)
    c = cfg.kappa * g
    if not 0.0 < c < math.inf:
        raise NumericRangeError(f"stabilization coefficient kappa*g out of range: "
                                f"kappa={cfg.kappa!r}, g={g!r}")
    nonlin = np.multiply(cfg.kappa, u)  # g (f(u) + kappa u) in one buffer
    nonlin += fu
    nonlin *= g
    return g, fu, StabilizedOperator(grid, c, cfg.eps ** 2), grid.fast_forward(nonlin)


def _check_finite(s: float, label: str):
    """``NumericRangeError`` unless the state a step made is finite, read from s.

    Every s-update subtracts h^2 g sum_i f_i (u_new_i - u_i) with g > 0,
    u = u^n and f the reaction the stage froze (at u^n or at the midpoint),
    finite where that field is.  A +-inf or NaN entry of u_new makes its
    term non-finite: inf * 0 = NaN, inf * f_i = +-inf for f_i != 0,
    NaN * f_i = NaN.  A sum with a non-finite term is non-finite
    (inf - inf = NaN), so s is too.  Hence this check raises exactly when a
    check of s and of every entry of u_new would, without a pass over the
    field."""
    if not math.isfinite(s):
        raise NumericRangeError(f"non-finite state after {label}")


def _first_order(grid: Grid, cfg: SchemeConfig, state: SolverState,
                 tau: float, resolvent: bool):
    """One step with everything frozen at (u^n, s^n), advanced from the
    spectrum of u^n: the exponential (ei1) or, with ``resolvent``, the
    backward-Euler resolvent (stab1), (I + tau L) u^{n+1} = u^n + tau N.
    Returns ``(u, s, g, u_hat)`` at the new state."""
    u, s = state.u, state.s
    g_n, fu, op, n_hat = _frozen_at(grid, cfg, u, s, state.fu, state.e1)
    u_new, u_hat_new = op.advance_spectral(tau, state.u_hat, n_hat, resolvent)
    return u_new, s - g_n * grid.inner(fu, u_new - u), g_n, u_hat_new


def _second_order(grid: Grid, cfg: SchemeConfig, state: SolverState,
                  tau: float):
    """Second-order prediction-correction step.

    The predictor is one ei1 step; the corrector freezes the operator and the
    nonlinear term at the predicted midpoint and adds a high-order
    stabilization term to the s-update.  Both stages advance u^n from its
    spectrum; the predictor's own spectrum is dropped at once.  The predictor
    reuses the carried f(u^n); the midpoint evaluates f once and E1 from it.
    """
    u, s = state.u, state.s
    u_pred, s_pred = _first_order(grid, cfg, state, tau, resolvent=False)[:2]
    _check_finite(s_pred, "ei1 step")
    g_m, f_mid, op, n_hat = _frozen_at(grid, cfg, 0.5 * (u + u_pred),
                                       0.5 * (s + s_pred))
    u_new, u_hat_new = op.advance_spectral(tau, state.u_hat, n_hat,
                                           resolvent=False)
    du = u_new - u
    rise = np.subtract(u_new, u_pred, out=u_pred)
    s_new = (s - g_m * grid.inner(f_mid, du)
             + 0.5 * cfg.kappa * g_m * grid.inner(rise, du))
    return u_new, s_new, g_m, u_hat_new


def step(grid: Grid, cfg: SchemeConfig, state: SolverState,
         tau: float) -> SolverState:
    """One step of the scheme ``cfg.scheme`` names: ei1 and stab1 take the
    first-order step, ei2 corrects it at the midpoint.  tau must be finite and
    positive; a value out of range (a ``NumericRangeError``) is re-raised as a
    ``NumericFailure`` naming the step, its start time and tau.  The stage's
    fields are released before the new state's f and, from it, its bulk
    energy are evaluated."""
    positive("tau", tau)
    n = state.step + 1
    try:
        if cfg.scheme == EI2:
            u_new, s_new, g, u_hat = _second_order(grid, cfg, state, tau)
        else:
            u_new, s_new, g, u_hat = _first_order(grid, cfg, state, tau,
                                                  resolvent=cfg.scheme == STAB1)
        _check_finite(s_new, f"{cfg.scheme} step")
        fu = cfg.potential.f(u_new)
        e1 = bulk_energy(grid, cfg.potential, u_new, fu)
    except NumericRangeError as exc:
        raise NumericFailure(str(exc), n, state.t, tau) from exc
    return SolverState(u=u_new, s=s_new, e1=e1, u_hat=u_hat, fu=fu,
                       t=state.t + tau, step=n, g=g)


def reference_solution(grid: Grid, cfg: SchemeConfig, u0: np.ndarray,
                       t_end: float, tau_ref: float) -> SolverState:
    """Ground truth: ei2 at a fine uniform step, whatever ``cfg.scheme`` is.

    Intended for convergence studies with tau_ref well below the sweep's
    smallest step (a factor of 32 or more).
    """
    n_steps = steps_to(t_end, tau_ref, "tau_ref")
    cfg = replace(cfg, scheme=EI2)
    state = initial_state(grid, cfg, u0)
    for _ in range(n_steps):
        state = step(grid, cfg, state, tau_ref)
    return state
