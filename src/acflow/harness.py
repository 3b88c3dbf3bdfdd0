"""Initial conditions and the run: ``run`` steps one trajectory under a step
policy, with a diagnostics row, invariant checks and files at every step."""

from __future__ import annotations

import contextlib
import json
import os
import re
from dataclasses import asdict, dataclass, fields

import numpy as np

from .errors import NumericFailure, positive, whole
from .grid import Grid
from .potentials import interface_energy
from .schemes import MBP_TOL, SchemeConfig, SolverState, initial_state, step

# Energy slack of a run with check_invariants on; a run without it allows
# ENERGY_TOL * max(1, |E(u0)|), some ulps of E where |E| is large.
ENERGY_TOL = 1e-10


def init_sine(grid: Grid, amplitude: float) -> np.ndarray:
    """amplitude * sin(2 pi x / L) * sin(2 pi y / L) at the mesh points."""
    s = np.sin(2.0 * np.pi / grid.length * grid.nodes())  # one sine serves both axes
    return (amplitude * s)[:, None] * s


def init_random(grid: Grid, lo: float, hi: float, seed: int) -> np.ndarray:
    """I.i.d. uniform values in [lo, hi] from a counter-based Philox stream,
    so identical seeds give bitwise-identical fields on any platform."""
    if lo > hi:
        raise ValueError(f"need lo <= hi, got {lo} > {hi}")
    rng = np.random.Generator(np.random.Philox(whole("seed", seed, 0)))
    return lo + (hi - lo) * rng.random((grid.m, grid.m))


@dataclass
class RunConfig:
    grid: Grid
    scheme: SchemeConfig
    stepping: object  # a timestep policy: next_step(t, t_end, rows)
    t_end: float
    out_dir: str | None = None
    snapshot_every: int = 0
    check_invariants: bool = False  # energy slack ENERGY_TOL, unscaled by |E(u0)|

    def __post_init__(self):
        positive("t_end", self.t_end)
        whole("snapshot_every", self.snapshot_every, 0)


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
    # interface_energy over the carried spectrum plus the state's bulk energy
    # e1 (the energy) or s (the modified energy): no transform and no F.
    interface = interface_energy(grid, state.u_hat, cfg.eps)
    return DiagnosticsRow(
        step=state.step,
        t=state.t,
        tau=tau,
        sup_norm=grid.norm_inf(state.u),
        energy=interface + state.e1,
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
    """A run's step broke MBP, modified-energy monotonicity or the bound
    s <= E(u0).  Made like a ``NumericFailure``; ``row``, set on it after, is
    the violating diagnostics row and survives a pickle round trip."""


def _check_invariants(rows: list[DiagnosticsRow], beta: float, tol: float):
    """Check the last row against beta + MBP_TOL, and against rows[-2] and
    E(u0) with energy slack ``tol``; an ``InvariantViolation`` names the
    first rule it breaks and the step's start time, rows[-2].t."""
    row, prev_modified, e0 = rows[-1], rows[-2].modified_energy, rows[0].energy
    if row.sup_norm > beta + MBP_TOL:
        message = f"MBP violated: sup norm {row.sup_norm} > beta {beta}"
    elif row.modified_energy > prev_modified + tol:
        message = f"modified energy increased: {prev_modified} -> {row.modified_energy}"
    elif row.s > e0 + tol:
        message = f"auxiliary variable s={row.s} exceeds E(u0)={e0}"
    else:
        return
    exc = InvariantViolation(message, row.step, rows[-2].t, row.tau)
    exc.row = row
    raise exc


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
    row).  When an output directory is set, opens diagnostics.csv in it,
    removes an earlier run's failure.json and snapshots u_<k>.npy, then
    streams the rows and writes the requested snapshots as it goes.  Every
    step must keep MBP (sup norm <= beta + MBP_TOL), modified-energy decay and
    s <= E(u0), the last two to ENERGY_TOL * max(1, |E(u0)|), or with
    ``check_invariants`` to ENERGY_TOL.  A failing step (a ``NumericFailure``,
    ``InvariantViolation`` included, naming the step, its start time and
    size) leaves failure.json and the last good field in the output
    directory, and is re-raised.  Snapshots without an output directory,
    initial data outside [-beta, beta], a run the policy refuses and a
    directory named like an earlier run's file are a ``ValueError``, raised
    before diagnostics.csv is opened or an earlier run's files are removed.
    """
    grid, scfg, stepping, out_dir = cfg.grid, cfg.scheme, cfg.stepping, cfg.out_dir
    every = cfg.snapshot_every
    if every and out_dir is None:
        raise ValueError(f"snapshot_every={every} needs an out_dir to write to")
    state = initial_state(grid, scfg, u0)
    rows = [_make_row(grid, scfg, state, 0.0)]
    tol = ENERGY_TOL * (1.0 if cfg.check_invariants else max(1.0, abs(rows[0].energy)))
    # The policy's first step is asked for, the names to remove checked and
    # diagnostics.csv opened before an earlier run's files are removed, so a
    # run refused by any of them leaves them.
    tau = stepping.next_step(state.t, cfg.t_end, rows)

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with os.scandir(out_dir) as entries:
            stale = [entry for entry in entries if entry.name == "failure.json"
                     or re.fullmatch(r"u_[0-9]+\.npy", entry.name)]
        for entry in stale:
            if entry.is_dir(follow_symlinks=False):
                raise ValueError(f"{entry.path} is a directory, not an earlier "
                                 "run's file to replace")
    # Line-buffered, so each row is in the file once it is made.
    with (contextlib.nullcontext() if out_dir is None else
          open(os.path.join(out_dir, "diagnostics.csv"), "w", buffering=1)) as csv:
        if csv is not None:
            for entry in stale:
                os.remove(entry.path)
            csv.write(DIAGNOSTICS_HEADER + "\n")
            write_diagnostics(csv, rows[0])
        if every:
            _write_snapshot(out_dir, state)
        while tau is not None:
            try:
                new = step(grid, scfg, state, tau)
                row = _make_row(grid, scfg, new, tau)
                rows.append(row)
                if csv is not None:
                    write_diagnostics(csv, row)
                _check_invariants(rows, scfg.potential.beta, tol)
            except NumericFailure as exc:
                if out_dir is not None:
                    _write_failure(out_dir, exc, state, rows[state.step])
                raise
            state = new
            if every and state.step % every == 0:
                _write_snapshot(out_dir, state)
            tau = stepping.next_step(state.t, cfg.t_end, rows)
    return state, rows
