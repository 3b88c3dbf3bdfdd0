"""Trajectory driver: initial conditions, the run loop with diagnostics,
and temporal convergence studies."""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import NumericFailure, positive
from .grid import Grid
from .potentials import interface_energy
from .schemes import (SchemeConfig, SolverState, initial_state, reference_solution,
                      state_bulk_energy, step, steps_to)

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
    stepping: object  # a timestep policy: next_step(t, t_end, rows)
    t_end: float
    out_dir: str | None = None
    snapshot_every: int = 0
    check_invariants: bool = False

    def __post_init__(self):
        positive("t_end", self.t_end)
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
        return ",".join(format(getattr(self, f.name), ".17g") for f in fields(self))


DIAGNOSTICS_HEADER = ",".join(f.name for f in fields(DiagnosticsRow))


def _make_row(grid: Grid, cfg: SchemeConfig, state: SolverState,
              tau: float) -> DiagnosticsRow:
    # Bitwise the sums total_energy and modified_energy form, from one
    # stencil evaluation and the state's cached bulk energy.
    interface = interface_energy(grid, state.u, cfg.eps)
    return DiagnosticsRow(
        step=state.step,
        t=state.t,
        tau=tau,
        sup_norm=grid.norm_inf(state.u),
        energy=interface + state_bulk_energy(grid, cfg, state),
        modified_energy=interface + state.s,
        s=state.s,
        g=state.g,
    )


# write_diagnostics and _write_snapshot do all of run()'s per-step file
# output, so benchmarks/tracing.py can time it by wrapping these two names.
def write_diagnostics(fh, row: DiagnosticsRow):
    """Append one rendered row to an open diagnostics.csv."""
    fh.write(row.render() + "\n")


def _write_snapshot(out_dir: str, state: SolverState) -> str:
    """Save state.u exactly as u_<step>.npy; returns the file name."""
    name = f"u_{state.step}.npy"
    np.save(os.path.join(out_dir, name), state.u, allow_pickle=False)
    return name


class InvariantViolation(NumericFailure):
    """Raised in checked runs when MBP, modified-energy monotonicity or the
    bound s <= E(u0) fails; ``row`` is the violating diagnostics row."""

    def __init__(self, message: str, row: DiagnosticsRow):
        super().__init__(message, step=row.step)
        self.row = row


def _check_invariants(rows: list[DiagnosticsRow], beta: float):
    """Check rows[-1] against beta, rows[-2] and E(u0) = rows[0].energy."""
    row, prev_modified, e0 = rows[-1], rows[-2].modified_energy, rows[0].energy
    if row.sup_norm > beta + MBP_TOL:
        raise InvariantViolation(
            f"MBP violated: sup norm {row.sup_norm} > beta {beta}", row)
    if row.modified_energy > prev_modified + ENERGY_TOL:
        raise InvariantViolation(
            f"modified energy increased: {prev_modified} -> {row.modified_energy}",
            row)
    if row.s > e0 + ENERGY_TOL:
        raise InvariantViolation(
            f"auxiliary variable s={row.s} exceeds E(u0)={e0}", row)


def _write_failure(out_dir: str, exc: NumericFailure, state: SolverState,
                   row: DiagnosticsRow):
    """Write failure.json and the field of ``state``, the last good one (``row``)."""
    record = {"step": exc.step, "t": exc.t, "tau": exc.tau,
              "error": type(exc).__name__, "message": str(exc),
              "last_good_row": asdict(row),
              "field": _write_snapshot(out_dir, state)}
    with open(os.path.join(out_dir, "failure.json"), "w") as fh:
        json.dump(record, fh, indent=2)
        fh.write("\n")


def run(u0: np.ndarray, cfg: RunConfig) -> tuple[SolverState, list[DiagnosticsRow]]:
    """Step the configured scheme from t = 0 to t_end.

    Returns the final state and one diagnostics row per step (plus the t = 0
    row).  When an output directory is set, streams diagnostics.csv and
    writes the requested snapshots as it goes.  A failing step (a
    ``NumericFailure``, ``InvariantViolation`` included) is given the step's
    start time and size, leaves failure.json and the last good field in the
    output directory, and is re-raised.  With ``check_invariants`` on, initial
    data outside [-beta, beta] is a ``ValueError``.
    """
    grid, scfg, stepping, out_dir = cfg.grid, cfg.scheme, cfg.stepping, cfg.out_dir
    state = initial_state(grid, scfg, u0)
    rows = [_make_row(grid, scfg, state, 0.0)]
    beta = scfg.potential.beta
    if cfg.check_invariants and rows[0].sup_norm > beta + MBP_TOL:
        raise ValueError(f"initial data exceeds the bound beta={beta}: "
                         f"sup norm {rows[0].sup_norm}")

    csv, every = None, 0
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        # Line-buffered, so each row is in the file once it is made.
        csv = open(os.path.join(out_dir, "diagnostics.csv"), "w", buffering=1)
        csv.write(DIAGNOSTICS_HEADER + "\n")
        write_diagnostics(csv, rows[0])
        every = cfg.snapshot_every
    try:
        if every:
            _write_snapshot(out_dir, state)
        while (tau := stepping.next_step(state.t, cfg.t_end, rows)) is not None:
            try:
                new = step(grid, scfg, state, tau)
                row = _make_row(grid, scfg, new, tau)
                rows.append(row)
                if csv is not None:
                    write_diagnostics(csv, row)
                if cfg.check_invariants:
                    _check_invariants(rows, beta)
            except NumericFailure as exc:
                exc.step, exc.t, exc.tau = state.step + 1, state.t, tau
                if out_dir is not None:
                    _write_failure(out_dir, exc, state, rows[state.step])
                raise
            state = new
            if every and state.step % every == 0:
                _write_snapshot(out_dir, state)
    finally:
        if csv is not None:
            csv.close()
    return state, rows


def converge(grid: Grid, scfg: SchemeConfig, u0: np.ndarray, t_end: float,
             taus: list[float], tau_ref: float) -> dict:
    """L2 errors at t_end against a fine-step reference, plus the fitted
    log-log slope of error versus step size."""
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
        state = initial_state(grid, scfg, u0)
        for _ in range(n_steps[tau]):
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
