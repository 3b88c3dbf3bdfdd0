"""One-step updates: first- and second-order exponential SAV schemes plus the
stabilized semi-implicit variant, and a fine-step reference-solution driver.

All steps are pure functions (state in, state out).  The auxiliary scalar s
tracks the bulk energy; the shaping ratio g = sigma(s) / sigma(E1(u)) feeds
both the frozen linear operator and the nonlinear term.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .errors import DomainBoundError, NumericFailure, NumericRangeError
from .expkernel import StabilizedOperator
from .grid import Grid
from .potentials import bulk_energy

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
        if self.eps <= 0:
            raise ValueError(f"eps must be positive, got {self.eps}")
        if self.kappa <= 0:
            raise ValueError(f"kappa must be positive, got {self.kappa}")
        if self.scheme not in SCHEMES:
            raise ValueError(f"unknown scheme {self.scheme!r}")


@dataclass
class SolverState:
    u: np.ndarray
    s: float
    t: float = 0.0
    step: int = 0
    g: float = 1.0  # shaping ratio used by the step that produced this state


def initial_state(grid: Grid, cfg: SchemeConfig, u0: np.ndarray) -> SolverState:
    u0 = grid.check(u0)
    return SolverState(u=u0, s=bulk_energy(grid, cfg.potential, u0))


def _frozen_at(grid: Grid, cfg: SchemeConfig, u: np.ndarray, s: float):
    """Freeze a step at (u, s): the shaping ratio g, f(u), the operator
    kappa g I - eps^2 Lap_h and the nonlinear term N = g (f(u) + kappa u)."""
    g = cfg.sigma.ratio(s, bulk_energy(grid, cfg.potential, u))
    fu = cfg.potential.f(u)
    op = StabilizedOperator(grid, cfg.kappa * g, cfg.eps ** 2)
    return g, fu, op, g * (fu + cfg.kappa * u)


def _next_state(state: SolverState, u_new: np.ndarray, s_new: float,
                tau: float, g: float, label: str) -> SolverState:
    if not np.isfinite(s_new) or not np.all(np.isfinite(u_new)):
        raise NumericFailure(f"non-finite state after {label}", step=state.step + 1)
    return SolverState(u=u_new, s=s_new, t=state.t + tau, step=state.step + 1,
                       g=g)


def _numeric_guard(fn):
    """Reject tau <= 0 and give range and domain errors the failing step."""

    @functools.wraps(fn)
    def wrapper(grid, cfg, state, tau):
        if tau <= 0:
            raise ValueError(f"tau must be positive, got {tau}")
        try:
            return fn(grid, cfg, state, tau)
        except (NumericRangeError, DomainBoundError) as exc:
            raise NumericFailure(str(exc), step=state.step + 1) from exc

    return wrapper


def _first_order(grid: Grid, cfg: SchemeConfig, state: SolverState,
                 tau: float, implicit: bool) -> SolverState:
    """One step with everything frozen at (u^n, s^n); the linear part is the
    exponential (ei1) or the backward-Euler resolvent (stab1)."""
    u, s = state.u, state.s
    g_n, fu, op, nonlin = _frozen_at(grid, cfg, u, s)
    u_new = (op.solve_shifted(tau, u + tau * nonlin) if implicit
             else op.advance(tau, u, nonlin))
    s_new = s - g_n * grid.inner(fu, u_new - u)
    return _next_state(state, u_new, s_new, tau, g_n,
                       "stab1 step" if implicit else "ei1 step")


@_numeric_guard
def step_ei1(grid: Grid, cfg: SchemeConfig, state: SolverState,
             tau: float) -> SolverState:
    """First-order exponential step with the operator frozen at (u^n, s^n)."""
    return _first_order(grid, cfg, state, tau, implicit=False)


@_numeric_guard
def step_ei2(grid: Grid, cfg: SchemeConfig, state: SolverState,
             tau: float) -> SolverState:
    """Second-order prediction-correction step.

    The predictor is one ei1 step; the corrector freezes the operator and the
    nonlinear term at the predicted midpoint and adds a high-order
    stabilization term to the s-update.
    """
    pred = step_ei1(grid, cfg, state, tau)
    u, s = state.u, state.s
    g_m, f_mid, op, nonlin = _frozen_at(grid, cfg, 0.5 * (u + pred.u),
                                        0.5 * (s + pred.s))
    u_new = op.advance(tau, u, nonlin)
    s_new = (s - g_m * grid.inner(f_mid, u_new - u)
             + 0.5 * cfg.kappa * g_m * grid.inner(u_new - pred.u, u_new - u))
    return _next_state(state, u_new, s_new, tau, g_m, "ei2 step")


@_numeric_guard
def step_stab1(grid: Grid, cfg: SchemeConfig, state: SolverState,
               tau: float) -> SolverState:
    """Semi-implicit variant: e^{-tau L} replaced by (I + tau L)^{-1}, so
    (I + tau L) u^{n+1} = u^n + tau N; the s-update matches ei1."""
    return _first_order(grid, cfg, state, tau, implicit=True)


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
    if t_end < 0:
        raise ValueError(f"t_end must be nonnegative, got {t_end}")
    n_steps = round(t_end / tau_ref) if t_end > 0 else 0
    if t_end > 0 and abs(n_steps * tau_ref - t_end) > 1e-12 * max(1.0, t_end):
        raise ValueError(f"tau_ref={tau_ref} does not divide t_end={t_end}")
    state = initial_state(grid, cfg, u0)
    for _ in range(n_steps):
        state = step_ei2(grid, cfg, state, tau_ref)
    return state
