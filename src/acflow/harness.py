"""Trajectory driver: initial conditions, the run loop with diagnostics,
and temporal convergence studies."""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from .errors import AcflowError
from .grid import Grid
from .potentials import bulk_energy, modified_energy, total_energy
from .schemes import SchemeConfig, SolverState, initial_state, step, reference_solution
from .timestep import AdaptiveStepping, UniformStepping

DIAGNOSTICS_HEADER = "step,t,tau,sup_norm,energy,modified_energy,s,g"

# Tolerances for the per-step invariant checks (run with check_invariants on).
MBP_TOL = 1e-12
ENERGY_TOL = 1e-10


def init_sine(grid: Grid, amplitude: float) -> np.ndarray:
    """amplitude * sin(2 pi x / L) * sin(2 pi y / L) at the mesh points."""
    x, y = grid.meshgrid()
    w = 2.0 * np.pi / grid.length
    return amplitude * np.sin(w * x) * np.sin(w * y)


def init_random(grid: Grid, lo: float, hi: float, seed: int) -> np.ndarray:
    """I.i.d. uniform values in [lo, hi] from a counter-based Philox stream,
    so identical seeds give bitwise-identical fields on any platform."""
    if lo > hi:
        raise ValueError(f"need lo <= hi, got {lo} > {hi}")
    rng = np.random.Generator(np.random.Philox(seed))
    return lo + (hi - lo) * rng.random((grid.m, grid.m))


@dataclass
class RunConfig:
    grid: Grid
    scheme: SchemeConfig
    stepping: object  # UniformStepping or AdaptiveStepping
    t_end: float
    out_dir: str | None = None
    snapshot_every: int = 0
    check_invariants: bool = False

    def __post_init__(self):
        if self.t_end <= 0:
            raise ValueError(f"t_end must be positive, got {self.t_end}")
        if self.snapshot_every < 0:
            raise ValueError("snapshot_every must be nonnegative")


@dataclass
class DiagnosticsRow:
    step: int
    t: float
    tau: float
    sup_norm: float
    energy: float
    modified_energy: float
    s: float
    g: float

    def render(self) -> str:
        vals = (self.t, self.tau, self.sup_norm, self.energy,
                self.modified_energy, self.s, self.g)
        return f"{self.step}," + ",".join(f"{v:.17g}" for v in vals)


def _make_row(grid: Grid, cfg: SchemeConfig, state: SolverState,
              tau: float) -> DiagnosticsRow:
    return DiagnosticsRow(
        step=state.step,
        t=state.t,
        tau=tau,
        sup_norm=grid.norm_inf(state.u),
        energy=total_energy(grid, cfg.potential, state.u, cfg.eps),
        modified_energy=modified_energy(grid, state.u, state.s, cfg.eps),
        s=state.s,
        g=state.g,
    )


def _write_snapshot(out_dir: str, state: SolverState):
    path = os.path.join(out_dir, f"u_{state.step}.csv")
    np.savetxt(path, state.u, delimiter=",", fmt="%.17g")


class InvariantViolation(AcflowError):
    """Raised in checked runs when MBP or modified-energy monotonicity fails."""

    def __init__(self, message: str, row: DiagnosticsRow):
        super().__init__(message)
        self.row = row


def _fit_tail(stepping: AdaptiveStepping, t: float, t_end: float, tau: float,
              slack: float) -> float:
    """Clip an adaptive step to t_end; a tail shorter than tau_min is merged
    into this step if that fits under tau_max, else split into two equal steps."""
    remainder = t_end - t
    if remainder - tau >= stepping.tau_min or abs(remainder - tau) <= slack:
        return min(tau, remainder)
    for pieces in (1, 2):
        if stepping.tau_min <= remainder / pieces <= stepping.tau_max:
            return remainder / pieces
    raise ValueError(f"cannot reach t_end={t_end} from t={t} with steps in "
                     f"[tau_min={stepping.tau_min}, tau_max={stepping.tau_max}]")


def run(u0: np.ndarray, cfg: RunConfig) -> tuple[SolverState, list[DiagnosticsRow]]:
    """Step the configured scheme from t = 0 to t_end.

    Returns the final state and one diagnostics row per step (plus the t = 0
    row).  When an output directory is set, writes diagnostics.csv and, if
    requested, periodic field snapshots.
    """
    grid, scfg = cfg.grid, cfg.scheme
    state = initial_state(grid, scfg, u0)
    rows = [_make_row(grid, scfg, state, 0.0)]
    adaptive = isinstance(cfg.stepping, AdaptiveStepping)
    beta = scfg.potential.beta

    if cfg.out_dir is not None:
        os.makedirs(cfg.out_dir, exist_ok=True)
        if cfg.snapshot_every:
            _write_snapshot(cfg.out_dir, state)

    prev_energy = rows[0].energy
    prev_tau = None
    endpoint_slack = 1e-12 * max(1.0, cfg.t_end)
    while state.t < cfg.t_end - endpoint_slack:
        if adaptive:
            if prev_tau is None:
                tau = cfg.stepping.tau_min
            else:
                tau = cfg.stepping.next_tau(prev_energy, rows[-1].energy, prev_tau)
            tau = _fit_tail(cfg.stepping, state.t, cfg.t_end, tau, endpoint_slack)
        else:
            # Shorten the last step to land exactly on t_end.
            tau = min(cfg.stepping.tau, cfg.t_end - state.t)

        prev_energy = rows[-1].energy
        prev_tau = tau
        prev_modified = rows[-1].modified_energy
        state = step(grid, scfg, state, tau)
        row = _make_row(grid, scfg, state, tau)
        rows.append(row)

        if cfg.check_invariants:
            if row.sup_norm > beta + MBP_TOL:
                raise InvariantViolation(
                    f"MBP violated at step {state.step}: "
                    f"sup norm {row.sup_norm} > beta {beta}", row)
            if row.modified_energy > prev_modified + ENERGY_TOL:
                raise InvariantViolation(
                    f"modified energy increased at step {state.step}: "
                    f"{prev_modified} -> {row.modified_energy}", row)

        if cfg.out_dir is not None and cfg.snapshot_every:
            if state.step % cfg.snapshot_every == 0:
                _write_snapshot(cfg.out_dir, state)

    if cfg.out_dir is not None:
        write_diagnostics(os.path.join(cfg.out_dir, "diagnostics.csv"), rows)
    return state, rows


def write_diagnostics(path: str, rows: list[DiagnosticsRow]):
    with open(path, "w") as fh:
        fh.write(DIAGNOSTICS_HEADER + "\n")
        for row in rows:
            fh.write(row.render() + "\n")


def _check_divides(tau: float, t_end: float, label: str):
    n = round(t_end / tau)
    if n < 1 or abs(n * tau - t_end) > 1e-12 * max(1.0, t_end):
        raise ValueError(f"{label}={tau} does not divide t_end={t_end}")


def converge(grid: Grid, scfg: SchemeConfig, u0: np.ndarray, t_end: float,
             taus: list[float], tau_ref: float) -> dict:
    """L2 errors at t_end against a fine-step reference, plus the fitted
    log-log slope of error versus step size."""
    for tau in taus:
        _check_divides(tau, t_end, "tau")
    _check_divides(tau_ref, t_end, "tau_ref")
    if tau_ref > min(taus) / 32:
        raise ValueError(
            f"tau_ref={tau_ref} too coarse; need <= min(taus)/32 = {min(taus) / 32}")

    ref = reference_solution(grid, scfg, u0, t_end, tau_ref)
    entries = []
    for tau in sorted(taus, reverse=True):
        state = initial_state(grid, scfg, u0)
        for _ in range(round(t_end / tau)):
            state = step(grid, scfg, state, tau)
        diff = state.u - ref.u
        entries.append({
            "tau": tau,
            "l2_error": grid.norm2(diff),
            "linf_error": grid.norm_inf(diff),
        })
    log_tau = np.log([e["tau"] for e in entries])
    log_err = np.log([e["l2_error"] for e in entries])
    slope = float(np.polyfit(log_tau, log_err, 1)[0])
    return {"entries": entries, "slope": slope}
