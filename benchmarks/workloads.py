"""The benchmark's workloads: inputs made from a seed, the timed operation,
and the checks on its output.

Each workload has four parts, called in this order by ``run.py``:

- ``setup(seed)`` builds everything the first step needs and takes one
  throwaway warm-up step (timed as ``setup_s``);
- ``prepare(ctx)`` makes per-operation scratch such as an output directory;
- ``op(ctx, scratch)`` is the timed operation (``wall_s``); it catches each
  failure of acflow and records it, so a failed run still yields a result;
- ``check(ctx, scratch, raw)`` verifies the output, removes the scratch and
  returns an ``OpResult``.

Functions are looked up on the acflow modules at call time
(``schemes.step``, ``harness.run``) so the traced run's wrappers apply.
"""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import tempfile
from dataclasses import dataclass, field
from types import SimpleNamespace

import numpy as np

from acflow import harness, schemes
from acflow.grid import Grid
from acflow.potentials import DoubleWell, ExpSigma, FloryHuggins, total_energy
from acflow.timestep import AdaptiveStepping, UniformStepping

DEFAULT_SEED = 2024
EPS = 0.01
ENERGY_TOL = 1e-10  # s <= E(u0) + 1e-10, as in the acceptance suite
ORDER_TOL = 0.15
DIAGNOSTICS_HEADER = "step,t,tau,sup_norm,energy,modified_energy,s,g"
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


@dataclass
class OpResult:
    steps: int
    attempted: int
    failures: list[str] = field(default_factory=list)
    summary: dict[str, float] = field(default_factory=dict)  # pinned quantities
    io_bytes: int = 0
    order_dev: float = 0.0

    @property
    def failed(self) -> int:
        return min(len(self.failures), self.attempted)


def _state_summary(grid, potential, state) -> dict[str, float]:
    return {
        "energy": total_energy(grid, potential, state.u, EPS),
        "s": state.s,
        "norm2": grid.norm2(state.u),
        "sup_norm": grid.norm_inf(state.u),
        "steps": float(state.step),
    }


def _run_failures(raw, e0: float) -> list[str]:
    """Failures common to the two ``run()`` workloads."""
    if isinstance(raw, Exception):
        return [f"run raised {raw!r}"]
    _, rows = raw
    worst = max(r.s for r in rows) - e0
    return [] if worst <= ENERGY_TOL else [f"s exceeds E(u0) by {worst:.3e}"]


class Sweep:
    """Temporal-convergence sweeps: M=128 periodic double well, three schemes
    at three shaping rates against one fine ei2 reference."""

    name = "sweep"
    neumann = False
    orders = {"ei1": 1.0, "ei2": 2.0, "stab1": 1.0}
    rates = (1.0, 10.0, 100.0)

    def __init__(self, smoke: bool = False, scratch: str = ""):
        self.m = 16 if smoke else 128
        self.t_end = 0.125 if smoke else 0.5
        self.taus = [2.0**-k for k in range(4, 8)]
        self.tau_ref = 2.0**-12
        self.ref_steps = round(self.t_end / self.tau_ref)
        self.sweep_steps = sum(round(self.t_end / tau) for tau in self.taus)

    def setup(self, seed: int):
        amplitude = np.random.Generator(np.random.Philox(seed)).uniform(0.05, 0.2)
        grid = Grid(self.m)
        pot = DoubleWell()
        cfgs = {(scheme, a): schemes.SchemeConfig(eps=EPS, kappa=2.0, potential=pot,
                                                  sigma=ExpSigma(a), scheme=scheme)
                for scheme in self.orders for a in self.rates}
        ref_cfg = cfgs[("ei2", 1.0)]
        u0 = harness.init_sine(grid, amplitude)
        state = schemes.initial_state(grid, ref_cfg, u0)
        schemes.step(grid, ref_cfg, state, self.taus[0])
        return SimpleNamespace(grid=grid, pot=pot, cfgs=cfgs, ref_cfg=ref_cfg, u0=u0)

    def prepare(self, ctx):
        return None

    def op(self, ctx, scratch):
        grid, u0 = ctx.grid, ctx.u0
        try:
            ref = schemes.reference_solution(grid, ctx.ref_cfg, u0, self.t_end,
                                             self.tau_ref)
        except Exception as exc:  # a failed operation, reported by check()
            return exc
        fits = {}
        for key, cfg in ctx.cfgs.items():
            try:
                errs = []
                for tau in self.taus:
                    state = schemes.initial_state(grid, cfg, u0)
                    for _ in range(round(self.t_end / tau)):
                        state = schemes.step(grid, cfg, state, tau)
                    errs.append(grid.norm2(state.u - ref.u))
                slope = float(np.polyfit(np.log(self.taus), np.log(errs), 1)[0])
                fits[key] = (slope, errs[-1])
            except Exception as exc:
                fits[key] = exc
        return ref, fits

    def check(self, ctx, scratch, raw) -> OpResult:
        n_fits = len(ctx.cfgs)
        res = OpResult(steps=self.ref_steps + n_fits * self.sweep_steps,
                       attempted=1 + n_fits)
        if isinstance(raw, Exception):
            res.failures = [f"reference raised {raw!r}"] * res.attempted
            return res
        ref, fits = raw
        res.summary = _state_summary(ctx.grid, ctx.pot, ref)
        res.summary["steps"] = float(res.steps)
        for (scheme, a), fit in fits.items():
            label = f"{scheme}/a={a:g}"
            if isinstance(fit, Exception):
                res.failures.append(f"{label} raised {fit!r}")
                continue
            slope, finest_err = fit
            dev = abs(slope - self.orders[scheme])
            res.order_dev = max(res.order_dev, dev)
            res.summary[f"err.{scheme}.a{a:g}"] = finest_err
            if not dev <= ORDER_TOL:
                res.failures.append(f"{label} slope {slope:.4f} off by {dev:.4f}")
        return res


class Adaptive:
    """The set-up of acceptance criterion 7 over the coarsening phase, t <= 2:
    M=128 Neumann Flory-Huggins, ei2, adaptive steps, invariants checked
    every step."""

    name = "adaptive"
    neumann = True

    def __init__(self, smoke: bool = False, scratch: str = ""):
        self.m = 16 if smoke else 128
        self.t_end = 0.5 if smoke else 2.0
        self.stepping = (AdaptiveStepping(1e-3, 0.1, 1e2) if smoke
                         else AdaptiveStepping(1e-4, 0.1, 1e5))

    def setup(self, seed: int):
        grid = Grid(self.m, boundary="neumann")
        pot = FloryHuggins()
        scfg = schemes.SchemeConfig(eps=EPS, kappa=pot.lipschitz, potential=pot,
                                    sigma=ExpSigma(1.0), scheme="ei2")
        cfg = harness.RunConfig(grid=grid, scheme=scfg, stepping=self.stepping,
                                t_end=self.t_end, check_invariants=True)
        u0 = harness.init_random(grid, -0.8, 0.8, seed)
        state = schemes.initial_state(grid, scfg, u0)
        schemes.step(grid, scfg, state, self.stepping.tau_min)
        return SimpleNamespace(grid=grid, pot=pot, cfg=cfg, u0=u0)

    def prepare(self, ctx):
        return None

    def op(self, ctx, scratch):
        try:
            return harness.run(ctx.u0, ctx.cfg)
        except Exception as exc:  # InvariantViolation included
            return exc

    def check(self, ctx, scratch, raw) -> OpResult:
        e0 = total_energy(ctx.grid, ctx.pot, ctx.u0, EPS)
        failures = _run_failures(raw, e0)
        if isinstance(raw, Exception):
            return OpResult(steps=0, attempted=1, failures=failures)
        state, rows = raw
        lo, hi = self.stepping.tau_min, self.stepping.tau_max
        bad = [r for r in rows[1:] if not lo * (1 - 1e-12) <= r.tau <= hi]
        if bad:
            failures.append(f"{len(bad)} steps outside [tau_min, tau_max], "
                            f"first at step {bad[0].step} with tau={bad[0].tau!r}")
        if 3 * state.step > round(self.t_end / lo):
            failures.append(f"{state.step} steps, not 3x fewer than uniform tau_min")
        return OpResult(steps=state.step, attempted=1, failures=failures,
                        summary=_state_summary(ctx.grid, ctx.pot, state))


class Large:
    """M=512 Neumann Flory-Huggins ei2 trajectory at uniform tau with
    invariant checks, %.17g CSV snapshots and diagnostics.csv."""

    name = "large"
    neumann = True

    def __init__(self, smoke: bool = False, scratch: str = ""):
        self.m = 32 if smoke else 512
        self.tau = 0.01
        self.t_end = 0.04 if smoke else 0.2
        self.snapshot_every = 2 if smoke else 10
        self.n_steps = round(self.t_end / self.tau)
        self.scratch = scratch

    def setup(self, seed: int):
        grid = Grid(self.m, boundary="neumann")
        pot = FloryHuggins()
        scfg = schemes.SchemeConfig(eps=EPS, kappa=pot.lipschitz, potential=pot,
                                    sigma=ExpSigma(1.0), scheme="ei2")
        cfg = harness.RunConfig(grid=grid, scheme=scfg,
                                stepping=UniformStepping(self.tau), t_end=self.t_end,
                                snapshot_every=self.snapshot_every,
                                check_invariants=True)
        u0 = harness.init_random(grid, -0.8, 0.8, seed)
        state = schemes.initial_state(grid, scfg, u0)
        schemes.step(grid, scfg, state, self.tau)
        return SimpleNamespace(grid=grid, pot=pot, cfg=cfg, u0=u0)

    def prepare(self, ctx):
        os.makedirs(self.scratch, exist_ok=True)
        return tempfile.mkdtemp(prefix="large-", dir=self.scratch)

    def op(self, ctx, scratch):
        try:
            return harness.run(ctx.u0, dataclasses.replace(ctx.cfg, out_dir=scratch))
        except Exception as exc:  # InvariantViolation included
            return exc

    def check(self, ctx, scratch, raw) -> OpResult:
        try:
            return self._check(ctx, scratch, raw)
        finally:
            shutil.rmtree(scratch)

    def _check(self, ctx, scratch, raw) -> OpResult:
        e0 = total_energy(ctx.grid, ctx.pot, ctx.u0, EPS)
        failures = _run_failures(raw, e0)
        names = os.listdir(scratch)
        io_bytes = sum(os.path.getsize(os.path.join(scratch, n)) for n in names)
        if isinstance(raw, Exception):
            return OpResult(steps=0, attempted=1, failures=failures, io_bytes=io_bytes)
        state, _ = raw
        with open(os.path.join(scratch, "diagnostics.csv")) as fh:
            lines = fh.read().splitlines()
        if lines[:1] != [DIAGNOSTICS_HEADER] or len(lines) != self.n_steps + 2:
            failures.append(f"diagnostics.csv: header {lines[:1]}, "
                            f"{len(lines) - 1} rows, want {self.n_steps + 1}")
        n_snapshots = len(names) - 1
        if n_snapshots != self.n_steps // self.snapshot_every + 1:
            failures.append(f"{n_snapshots} snapshots written")
        return OpResult(steps=state.step, attempted=1, failures=failures,
                        summary=_state_summary(ctx.grid, ctx.pot, state),
                        io_bytes=io_bytes)


WORKLOADS = {cls.name: cls for cls in (Sweep, Adaptive, Large)}


def pinned(workload: str, smoke: bool) -> dict[str, float]:
    with open(PINNED_PATH) as fh:
        table = json.load(fh)
    return {k: float(v) for k, v in table["smoke" if smoke else "full"][workload].items()}


def drift_rel(summary: dict[str, float], pins: dict[str, float]) -> float:
    """Largest relative difference from the pinned default-seed values;
    infinite when the operation failed before producing them."""
    if set(pins) - set(summary):
        return float("inf")
    return max(abs(summary[k] - v) / abs(v) for k, v in pins.items())
