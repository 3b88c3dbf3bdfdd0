"""Steps and the fixed-step study: ``step`` runs the scheme a
``SchemeConfig`` names (ei1, ei2 or stab1) in one body, and ``converge``
fits its temporal order against ``reference_solution`` (ei2 at a fine step).

All steps are pure functions (state in, state out).  Every scheme takes one
first-order stage frozen at (u^n, s^n); ei2 corrects it at the midpoint.
The auxiliary scalar s tracks the bulk energy; the shaping ratio
g = sigma(s/|Omega|) / sigma(E1(u)/|Omega|), of energies per unit area so
that no rate of sigma depends on the domain size, feeds both the frozen
linear operator and the nonlinear term.  Every state is complete when
made: it carries the reaction f(u), evaluated once, for the next step's
freeze and s-update; E1(u), summed from that f(u) by ``bulk_energy`` with
no field of F, for the next step and the diagnostics row; and the
spectrum of u.  ``initial_state`` transforms u0; every later spectrum is
handed on by the step that made u from its kernel, so no step transforms
u again.

Two loops call ``step``: ``harness.run``'s policy loop builds a row per step,
writes files, checks the invariants and clips its last step to land on
t_end; the whole-step loop here builds no rows and takes steps of exactly tau.
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
    """The state at t = 0; a ``ValueError`` unless u0 is an (M, M) field with
    finite |u0| <= beta + MBP_TOL.  The max and min that give the sup norm
    are NaN or +-inf when an entry is, so one read checks both.  ``step``
    does not check beta: build a ``SolverState`` to start beyond it."""
    u0 = np.asarray(u0, dtype=float)
    if u0.shape != (grid.m, grid.m):
        raise ValueError(f"grid function shape {u0.shape} != {(grid.m, grid.m)}")
    beta, sup = cfg.potential.beta, grid.norm_inf(u0)
    if not math.isfinite(sup):
        raise ValueError("grid function contains non-finite entries")
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
    on return.  fu = f(u) and e1 = E1(u) come together, or both are evaluated."""
    if fu is None:
        fu = cfg.potential.f(u)
        e1 = bulk_energy(grid, cfg.potential, u, fu)
    area = grid.length * grid.length  # |Omega|; at L = 1 the divisions are exact
    g = cfg.sigma.ratio(s / area, e1 / area)
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


def step(grid: Grid, cfg: SchemeConfig, state: SolverState,
         tau: float) -> SolverState:
    """One step of the scheme ``cfg.scheme`` names, in one body.

    Every scheme first takes a first-order stage: freeze at (u^n, s^n),
    advance the spectrum of u^n by the exponential (ei1) or the
    backward-Euler resolvent (stab1), (I + tau L) u^{n+1} = u^n + tau N,
    then update s.  For ei2 that stage is an ei1 predictor, whose spectrum
    is freed before the corrector freezes at the predicted midpoint
    (evaluating f once and E1 from it), advances u^n's spectrum again and
    adds a high-order stabilization term to the s-update.  tau must be
    finite and positive; a value out of range (a ``NumericRangeError``) is
    re-raised as a ``NumericFailure`` naming the step, its start time and
    tau.  The stages' fields are released before the new state's f and,
    from it, its bulk energy are evaluated."""
    positive("tau", tau)
    n = state.step + 1
    u, s = state.u, state.s
    try:
        g, f, op, n_hat = _frozen_at(grid, cfg, u, s, state.fu, state.e1)
        u_new, u_hat = op.advance_spectral(tau, state.u_hat, n_hat,
                                           resolvent=cfg.scheme == STAB1)
        s_new = s - g * grid.inner(f, u_new - u)
        if cfg.scheme == EI2:
            del n_hat, u_hat  # the predictor's spectrum
            _check_finite(s_new, "ei1 step")
            u_pred = u_new
            g, f, op, n_hat = _frozen_at(grid, cfg, 0.5 * (u + u_pred),
                                         0.5 * (s + s_new))
            u_new, u_hat = op.advance_spectral(tau, state.u_hat, n_hat,
                                               resolvent=False)
            du = u_new - u
            rise = np.subtract(u_new, u_pred, out=u_pred)
            s_new = (s - g * grid.inner(f, du)
                     + 0.5 * cfg.kappa * g * grid.inner(rise, du))
            del u_pred, rise, du, f  # freed before f(u^{n+1})
        _check_finite(s_new, f"{cfg.scheme} step")
        fu = cfg.potential.f(u_new)
        e1 = bulk_energy(grid, cfg.potential, u_new, fu)
    except NumericRangeError as exc:
        raise NumericFailure(str(exc), n, state.t, tau) from exc
    return SolverState(u=u_new, s=s_new, e1=e1, u_hat=u_hat, fu=fu,
                       t=state.t + tau, step=n, g=g)


def _whole_steps(grid: Grid, cfg: SchemeConfig, u0: np.ndarray, n_steps: int,
                 tau: float) -> SolverState:
    """n_steps steps of exactly tau from ``initial_state(grid, cfg, u0)``;
    unlike ``harness.run``'s policy loop it never clips the last, so
    ``converge`` compares states after whole steps, counted by ``steps_to``."""
    state = initial_state(grid, cfg, u0)
    for _ in range(n_steps):
        state = step(grid, cfg, state, tau)
    return state


def reference_solution(grid: Grid, cfg: SchemeConfig, u0: np.ndarray,
                       t_end: float, tau_ref: float) -> SolverState:
    """Ground truth: ei2 at a fine uniform step, whatever ``cfg.scheme`` is.
    ``converge`` refuses a tau_ref above its smallest step / 32."""
    return _whole_steps(grid, replace(cfg, scheme=EI2), u0,
                        steps_to(t_end, tau_ref, "tau_ref"), tau_ref)


def converge(grid: Grid, scfg: SchemeConfig, u0: np.ndarray, t_end: float,
             taus: list[float], tau_ref: float) -> dict:
    """L2 errors at t_end against a fine-step reference, plus the fitted
    log-log slope of error versus step size.  The slope is NaN unless every
    error is positive (from a fixed point such as u0 = 0 they are all 0)."""
    t_end = positive("t_end", t_end)
    n_steps = {tau: steps_to(t_end, tau, "tau") for tau in taus}
    if len(n_steps) < 2:
        raise ValueError(f"need at least two distinct step sizes, got {taus}")
    if tau_ref > min(taus) / 32:
        raise ValueError(
            f"tau_ref={tau_ref} too coarse; need <= min(taus)/32 = {min(taus) / 32}")

    ref = reference_solution(grid, scfg, u0, t_end, tau_ref)
    entries = []
    for tau in sorted(n_steps, reverse=True):
        diff = _whole_steps(grid, scfg, u0, n_steps[tau], tau).u - ref.u
        entries.append({
            "tau": tau,
            "l2_error": grid.norm2(diff),
            "linf_error": grid.norm_inf(diff),
        })
    errors = [e["l2_error"] for e in entries]
    slope = np.nan
    if all(err > 0.0 for err in errors):
        log_tau = np.log([e["tau"] for e in entries])
        slope = float(np.polyfit(log_tau, np.log(errors), 1)[0])
    return {"entries": entries, "slope": slope}
