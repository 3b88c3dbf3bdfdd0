"""One-step updates: first- and second-order exponential SAV schemes plus the
stabilized semi-implicit variant, and a fine-step reference-solution driver.

All steps are pure functions (state in, state out).  The auxiliary scalar s
tracks the bulk energy; the shaping ratio g = sigma(s) / sigma(E1(u)) feeds
both the frozen linear operator and the nonlinear term.  Each state carries
E1(u), evaluated once, for the next step and the diagnostics row.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainBoundError, NumericFailure, NumericRangeError, positive
from .expkernel import StabilizedOperator
from .grid import Grid
from .potentials import bulk_energy
from .timestep import steps_to

EI1 = "ei1"
EI2 = "ei2"
STAB1 = "stab1"
SCHEMES = (EI1, EI2, STAB1)


@dataclass
class SchemeConfig:
    eps: float
    kappa: float
    potential: object
    sigma: object
    scheme: str = EI1

    def __post_init__(self):
        positive("eps", self.eps)
        positive("kappa", self.kappa)
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class SolverState:
    u: np.ndarray
    s: float
    t: float = 0.0
    step: int = 0
    g: float = 1.0  # shaping ratio used by the step that produced this state
    e1: float | None = None  # bulk energy E1(u); None until first needed


def state_bulk_energy(grid: Grid, cfg: SchemeConfig, state: SolverState) -> float:
    """E1(state.u), evaluated once per state and cached on it."""
    if state.e1 is None:
        state.e1 = bulk_energy(grid, cfg.potential, state.u)
    return state.e1


def initial_state(grid: Grid, cfg: SchemeConfig, u0: np.ndarray) -> SolverState:
    u0 = grid.check(u0)
    e1 = bulk_energy(grid, cfg.potential, u0)
    return SolverState(u=u0, s=e1, e1=e1)


def _frozen_at(grid: Grid, cfg: SchemeConfig, u: np.ndarray, s: float,
               e1: float | None = None):
    """Freeze a step at (u, s): the shaping ratio g, f(u), the operator
    kappa g I - eps^2 Lap_h and the nonlinear term N = g (f(u) + kappa u).
    The bulk energy e1 = E1(u) is evaluated here unless given."""
    if e1 is None:
        e1 = bulk_energy(grid, cfg.potential, u)
    g = cfg.sigma.ratio(s, e1)
    fu = cfg.potential.f(u)
    op = StabilizedOperator(grid, cfg.kappa * g, cfg.eps ** 2)
    return g, fu, op, g * (fu + cfg.kappa * u)


def _check_finite(u: np.ndarray, s: float, label: str, step: int):
    if not np.isfinite(s) or not np.all(np.isfinite(u)):
        raise NumericFailure(f"non-finite state after {label}", step=step)


def _stepper(label: str):
    """Turn a step body ``(grid, cfg, state, tau) -> (u, s, g)`` into a
    stepper: require a finite positive tau, give range and domain errors the
    failing step, check the result is finite and fill in its bulk energy.
    The body's fields are released before that energy is evaluated."""

    def decorate(body):
        @functools.wraps(body)
        def wrapper(grid, cfg, state, tau):
            positive("tau", tau)
            n = state.step + 1
            try:
                u_new, s_new, g = body(grid, cfg, state, tau)
                _check_finite(u_new, s_new, label, n)
                e1 = bulk_energy(grid, cfg.potential, u_new)
            except (NumericRangeError, DomainBoundError) as exc:
                raise NumericFailure(str(exc), step=n) from exc
            return SolverState(u=u_new, s=s_new, t=state.t + tau, step=n, g=g,
                               e1=e1)

        return wrapper

    return decorate


def _first_order(grid: Grid, cfg: SchemeConfig, state: SolverState,
                 tau: float, u_hat: np.ndarray | None):
    """One step with everything frozen at (u^n, s^n).  The linear part is the
    exponential (ei1) given u_hat, the transform of u^n, or the
    backward-Euler resolvent (stab1) when u_hat is None."""
    u, s = state.u, state.s
    g_n, fu, op, nonlin = _frozen_at(grid, cfg, u, s,
                                     state_bulk_energy(grid, cfg, state))
    u_new = (op.solve_shifted(tau, u + tau * nonlin) if u_hat is None
             else op.advance_spectral(tau, u_hat, nonlin))
    return u_new, s - g_n * grid.inner(fu, u_new - u), g_n


@_stepper("ei1 step")
def step_ei1(grid: Grid, cfg: SchemeConfig, state: SolverState, tau: float):
    """First-order exponential step with the operator frozen at (u^n, s^n)."""
    return _first_order(grid, cfg, state, tau, grid.fast_forward(state.u))


@_stepper("ei2 step")
def step_ei2(grid: Grid, cfg: SchemeConfig, state: SolverState, tau: float):
    """Second-order prediction-correction step.

    The predictor is one ei1 step; the corrector freezes the operator and the
    nonlinear term at the predicted midpoint and adds a high-order
    stabilization term to the s-update.  Both stages advance u^n, so its
    transform is taken once.
    """
    u, s = state.u, state.s
    u_hat = grid.fast_forward(u)
    u_pred, s_pred, _ = _first_order(grid, cfg, state, tau, u_hat)
    _check_finite(u_pred, s_pred, "ei1 step", state.step + 1)
    g_m, f_mid, op, nonlin = _frozen_at(grid, cfg, 0.5 * (u + u_pred),
                                        0.5 * (s + s_pred))
    u_new = op.advance_spectral(tau, u_hat, nonlin)
    del u_hat, op, nonlin  # keep the s-update's temporaries off the peak
    du = u_new - u
    s_new = (s - g_m * grid.inner(f_mid, du)
             + 0.5 * cfg.kappa * g_m * grid.inner(u_new - u_pred, du))
    return u_new, s_new, g_m


@_stepper("stab1 step")
def step_stab1(grid: Grid, cfg: SchemeConfig, state: SolverState, tau: float):
    """Semi-implicit variant: e^{-tau L} replaced by (I + tau L)^{-1}, so
    (I + tau L) u^{n+1} = u^n + tau N; the s-update matches ei1."""
    return _first_order(grid, cfg, state, tau, None)


_STEPPERS = {EI1: step_ei1, EI2: step_ei2, STAB1: step_stab1}


def step(grid: Grid, cfg: SchemeConfig, state: SolverState,
         tau: float) -> SolverState:
    return _STEPPERS[cfg.scheme](grid, cfg, state, tau)


def reference_solution(grid: Grid, cfg: SchemeConfig, u0: np.ndarray,
                       t_end: float, tau_ref: float) -> SolverState:
    """Ground-truth generator: ei2 at a fine uniform step.

    Intended for convergence studies with tau_ref well below the sweep's
    smallest step (a factor of 32 or more).
    """
    n_steps = steps_to(t_end, tau_ref, "tau_ref")
    state = initial_state(grid, cfg, u0)
    for _ in range(n_steps):
        state = step_ei2(grid, cfg, state, tau_ref)
    return state
