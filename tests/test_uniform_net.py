"""A robustness net for ``run()`` under ``UniformStepping`` at the edges of
the theorems.

Steps tau from 1e-3 to 1e3; pure and near-pure initial data (u = 0, +-beta,
+-beta (1 - 10^-k), and fields within 10^-k beta of +-beta) run for 100 to
250 steps near equilibrium, random data for up to 20; Flory-Huggins down
to theta_c/theta = 1 + 1e-7, the smallest ratio it accepts; M in {4, 8, 16},
both potentials, both boundaries, every scheme and shaping function.  Every
run writes into an output directory.  Each run either returns, keeping MBP,
modified-energy decay and s <= E(u0) within the run's own slack, landing on
t_end with every row finite, or raises a ``NumericFailure`` that names its
step and leaves failure.json.  It never raises another type.
``hypothesis.target`` steers the search toward max|u| - beta and the largest
modified-energy increment, the margins of the two guarantees.

A second net scales the domain: side L = 10^U[0, 3] with eps and tau scaled
by L and L^2, random data for up to 20 steps, and kappa from a quarter to
four times the Lipschitz bound.  With kappa at or above the bound a run
keeps the same guarantees or stops with a ``NumericFailure`` other than an
``InvariantViolation``, which the theorems rule out there; below the bound
any ``NumericFailure`` with its record is allowed.
"""

import json
import math
import os
import tempfile
from dataclasses import replace

import numpy as np
from hypothesis import given, settings, target
from hypothesis import strategies as st

from acflow.errors import NumericFailure
from acflow.grid import BOUNDARIES, Grid
from acflow.harness import ENERGY_TOL, InvariantViolation, RunConfig, init_random, run
from acflow.potentials import SIGMAS, DoubleWell, FloryHuggins, make_sigma
from acflow.schemes import MBP_TOL, SCHEMES, SchemeConfig
from acflow.timestep import UniformStepping


def _edge_theta_c(theta):
    """The smallest theta_c near theta (1 + 1e-7) that FloryHuggins accepts."""
    theta_c = theta * (1.0 + 1e-7)
    while (theta_c - theta) / theta < 1e-7:
        theta_c = math.nextafter(theta_c, math.inf)
    return theta_c


@st.composite
def potentials(draw):
    if draw(st.booleans()):
        return DoubleWell()
    theta = draw(st.floats(0.05, 2.0))
    ratio = draw(st.one_of(st.just(None), st.floats(1.001, 3.0)))
    return FloryHuggins(theta, _edge_theta_c(theta) if ratio is None else theta * ratio)


@st.composite
def uniform_runs(draw):
    pot = draw(potentials())
    grid = Grid(draw(st.sampled_from([4, 8, 16])), 1.0, draw(st.sampled_from(BOUNDARIES)))
    scfg = SchemeConfig(eps=draw(st.floats(0.005, 0.2)),
                        kappa=pot.lipschitz * draw(st.floats(1.0, 4.0)), potential=pot,
                        sigma=make_sigma(draw(st.sampled_from(SIGMAS)), draw(st.floats(0.1, 50.0))),
                        scheme=draw(st.sampled_from(SCHEMES)))
    beta, sign = pot.beta, draw(st.sampled_from([1.0, -1.0]))
    gap = 10.0 ** -draw(st.integers(1, 16))
    seed = draw(st.integers(0, 2**32 - 1))
    kind = draw(st.sampled_from(["zero", "pure", "near-pure", "near-pure field", "random"]))
    shape = (grid.m, grid.m)
    u0 = {"zero": np.zeros(shape),
          "pure": np.full(shape, sign * beta),
          "near-pure": np.full(shape, sign * beta * (1.0 - gap)),
          "near-pure field": sign * beta * (1.0 - gap * init_random(grid, 0.0, 1.0, seed)),
          "random": init_random(grid, -beta, beta, seed)}[kind]
    steps = draw(st.floats(1.0, 20.0) if kind == "random" else st.floats(100.0, 250.0))
    tau = 10.0 ** draw(st.floats(-3.0, 3.0))
    return grid, scfg, u0, tau, tau * steps, draw(st.booleans())


def _run_or_failure(u0, cfg):
    """run(u0, cfg) into a fresh output directory: its rows, or the
    ``NumericFailure`` it raised, after checking the record that failure left."""
    with tempfile.TemporaryDirectory() as out:
        try:
            return run(u0, replace(cfg, out_dir=out))[1]
        except NumericFailure as exc:
            with open(os.path.join(out, "failure.json")) as fh:
                record = json.load(fh)
            assert record["step"] == exc.step >= 1
            assert str(exc).startswith(f"step {exc.step} from t=")
            assert record["last_good_row"]["step"] == exc.step - 1
            assert os.path.exists(os.path.join(out, record["field"]))
            return exc


def _check_guarantees(rows, cfg):
    """Assert that a returned run landed on t_end with finite rows, kept MBP,
    modified-energy decay and s <= E(u0); returns the margins
    (max|u| - beta, the largest modified-energy increment)."""
    assert all(math.isfinite(value) for row in rows for value in vars(row).values())
    assert abs(rows[-1].t - cfg.t_end) <= 1e-12 * cfg.t_end
    beta, e0 = cfg.scheme.potential.beta, rows[0].energy
    tol = ENERGY_TOL * (1.0 if cfg.check_invariants else max(1.0, abs(e0)))
    excess = max(row.sup_norm for row in rows) - beta
    rise = max(b.modified_energy - a.modified_energy for a, b in zip(rows, rows[1:]))
    assert excess <= MBP_TOL
    assert rise <= tol
    assert max(row.s for row in rows) - e0 <= tol
    return excess, rise


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(uniform_runs())
def test_uniform_run_keeps_its_guarantees_or_leaves_a_failure_record(problem):
    grid, scfg, u0, tau, t_end, checked = problem
    cfg = RunConfig(grid=grid, scheme=scfg, stepping=UniformStepping(tau), t_end=t_end,
                    check_invariants=checked)
    rows = _run_or_failure(u0, cfg)
    if isinstance(rows, NumericFailure):
        return
    assert len(rows) <= 252
    excess, rise = _check_guarantees(rows, cfg)
    target(excess, label="max|u| - beta")
    target(rise, label="largest modified-energy increment")


@st.composite
def scaled_uniform_runs(draw):
    pot = draw(potentials())
    length = 10.0 ** draw(st.floats(0.0, 3.0))
    grid = Grid(draw(st.sampled_from([4, 8, 16])), length, draw(st.sampled_from(BOUNDARIES)))
    scfg = SchemeConfig(eps=length * draw(st.floats(0.005, 0.2)),
                        kappa=pot.lipschitz * draw(st.floats(0.25, 4.0)), potential=pot,
                        sigma=make_sigma(draw(st.sampled_from(SIGMAS)), draw(st.floats(0.1, 50.0))),
                        scheme=draw(st.sampled_from(SCHEMES)))
    amplitude = pot.beta * draw(st.floats(0.0, 1.0))
    u0 = init_random(grid, -amplitude, amplitude, draw(st.integers(0, 2**32 - 1)))
    tau = length * length * 10.0 ** draw(st.floats(-3.0, 0.0))
    return RunConfig(grid=grid, scheme=scfg, stepping=UniformStepping(tau),
                     t_end=tau * draw(st.floats(1.0, 20.0)),
                     check_invariants=draw(st.booleans())), u0


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(scaled_uniform_runs())
def test_scaled_uniform_run_keeps_its_guarantees_where_kappa_is_admissible(problem):
    cfg, u0 = problem
    rows = _run_or_failure(u0, cfg)
    if isinstance(rows, NumericFailure):
        admissible = cfg.scheme.kappa >= cfg.scheme.potential.lipschitz
        assert not (admissible and isinstance(rows, InvariantViolation)), str(rows)
        return
    assert len(rows) <= 22
    _check_guarantees(rows, cfg)
