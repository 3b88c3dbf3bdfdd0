"""Work done per step: transforms, reaction and bulk-energy evaluations and
stencils.

Each counted function is wrapped with monkeypatch, so the counts are exact.
``initial_state`` evaluates f(u0), E1(u0) and transforms u0, once each, and
every step hands f, the bulk energy and the spectrum of the field it makes
to the next step, so no field of the trajectory is transformed again and no
reaction evaluated again: the ei2 step
advances u^n from one spectrum in both stages, and a diagnostics row sums
the interface energy over the spectrum the state carries, with no stencil.
A stage's freeze hands the advance the spectrum of the nonlinear term N, so
N is freed when the freeze returns, which bounds the memory an ei2 step
traces; at M=512 the elementwise chains' row strips bound it lower still.
"""

import tracemalloc

import pytest

from acflow import verify
from acflow.grid import Grid
from acflow.harness import RunConfig, init_random, init_sine, run
from acflow.potentials import DoubleWell, ExpSigma, FloryHuggins
from acflow.schemes import SchemeConfig, initial_state, step
from acflow.timestep import UniformStepping

STEPS = 4
TRANSFORMS_PER_STEP = {"ei1": 2, "ei2": 4, "stab1": 2}
# The forward transform of u0, taken by initial_state.
TRANSFORMS_AT_START = 1
# Evaluations of f and of the bulk energy (the potential's ``energy`` rule)
# per step, each also taken once by initial_state: ei2 adds the midpoint's.
# Neither rule forms the field F: both sum E1 from f, and the density F is
# only an oracle in acflow.verify.
EVALS_PER_STEP = {"ei1": 1, "ei2": 2, "stab1": 1}

PROBLEMS = {
    "periodic-dw": ("periodic", DoubleWell),
    "neumann-fh": ("neumann", FloryHuggins),
}


def _counter(monkeypatch, owner, name):
    calls = [0]
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[0] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


def _evaluation_counters(monkeypatch, potential):
    return {name: _counter(monkeypatch, type(potential), name)
            for name in ("energy", "f")}


def _assert_evaluations(calls, potential, scheme):
    expected = EVALS_PER_STEP[scheme] * STEPS + 1
    assert calls["energy"][0] == expected
    assert calls["f"][0] == expected
    assert not hasattr(potential, "F")  # so no run can evaluate it


# Peak bytes traced during one ei2 step at M=64, in fields of M*M floats,
# with numpy 2.4: Neumann FH measures 5.068 and periodic DW 5.670, with N
# freed when the freeze that transforms it returns (held through the advance,
# it adds one field here and at M=512).  The periodic peak is the spectral
# advance's, where about one field is numpy's buffer for casting the real multiplier to
# complex (capped at 8192 elements, so a smaller share at larger M).  The
# bounds leave 0.01 field for the Python objects a run allocates.
PEAK_M = 64
PEAK_FIELDS_PER_EI2_STEP = {"periodic-dw": 5.69, "neumann-fh": 5.08}

# At M=512 the potentials and the spectral advance run in row strips of
# 2**14 elements, so each temporary of their chains is 1/16 field, not one.
# Measured with numpy 2.4: one ei2 step 5.003 fields (Neumann FH) and 5.007
# (periodic DW); the whole-field kernels measured 6.00 and 5.57.  This peak
# lies in the s-update (u_pred, f_mid, u^{n+1}, its spectrum and
# u^{n+1} - u^n), so freeing N early does not lower it.
STRIP_M = 512
PEAK_FIELDS_PER_STRIP_EI2_STEP = {"periodic-dw": 5.02, "neumann-fh": 5.02}


def _setup(problem, scheme, m=16):
    boundary, potential = PROBLEMS[problem]
    grid = Grid(m, 1.0, boundary)
    pot = potential()
    cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                       sigma=ExpSigma(10.0), scheme=scheme)
    return grid, cfg, init_random(grid, -0.8, 0.8, 3)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
def test_step_costs(monkeypatch, problem, scheme):
    grid, cfg, u0 = _setup(problem, scheme)
    forward = _counter(monkeypatch, Grid, "fast_forward")
    inverse = _counter(monkeypatch, Grid, "fast_inverse")
    evals = _evaluation_counters(monkeypatch, cfg.potential)
    state = initial_state(grid, cfg, u0)
    for _ in range(STEPS):
        state = step(grid, cfg, state, 0.05)
    assert forward[0] + inverse[0] == (TRANSFORMS_PER_STEP[scheme] * STEPS
                                       + TRANSFORMS_AT_START)
    _assert_evaluations(evals, cfg.potential, scheme)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
def test_run_costs(monkeypatch, problem, scheme):
    # The diagnostics row reuses the state's E1(u) and spectrum: no f, no
    # bulk energy and no transform beyond those of test_step_costs, and no
    # stencil.
    grid, cfg, u0 = _setup(problem, scheme)
    forward = _counter(monkeypatch, Grid, "fast_forward")
    inverse = _counter(monkeypatch, Grid, "fast_inverse")
    evals = _evaluation_counters(monkeypatch, cfg.potential)
    stencil = _counter(monkeypatch, verify, "gradient")
    _, rows = run(u0, RunConfig(grid=grid, scheme=cfg,
                                stepping=UniformStepping(0.05),
                                t_end=STEPS * 0.05))
    assert len(rows) == STEPS + 1
    assert forward[0] + inverse[0] == (TRANSFORMS_PER_STEP[scheme] * STEPS
                                       + TRANSFORMS_AT_START)
    _assert_evaluations(evals, cfg.potential, scheme)
    assert stencil[0] == 0


def _peak_fields(m, fn):
    """Peak bytes traced while fn() runs, in fields of m*m floats."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        if not tracing:
            tracemalloc.stop()
    return peak / (m * m * 8)


def _ei2_step_peak(problem, m):
    grid, cfg, u0 = _setup(problem, "ei2", m)
    # Two steps first: the second starts from a carried spectrum, and scipy's
    # transform plans are cached by then.
    state = step(grid, cfg, step(grid, cfg, initial_state(grid, cfg, u0), 0.05), 0.05)
    return _peak_fields(m, lambda: step(grid, cfg, state, 0.05))


@pytest.mark.parametrize("problem", PROBLEMS)
def test_ei2_step_peak_memory(problem):
    fields = _ei2_step_peak(problem, PEAK_M)
    assert fields <= PEAK_FIELDS_PER_EI2_STEP[problem], fields


@pytest.mark.parametrize("problem", PROBLEMS)
def test_ei2_step_peak_memory_in_strips(problem):
    fields = _ei2_step_peak(problem, STRIP_M)
    assert fields <= PEAK_FIELDS_PER_STRIP_EI2_STEP[problem], fields


# init_sine forms one 1-D sine of the nodes and writes the outer product of
# the scaled sine with it into its result.  Measured with numpy 2.4 at
# M=512: 1.07 fields on either boundary, the result and numpy's broadcast
# buffers; two coordinate fields and a sine of each measured 5.00.
PEAK_FIELDS_INIT_SINE = 1.1


@pytest.mark.parametrize("boundary", ["periodic", "neumann"])
def test_init_sine_peak_memory(boundary):
    grid = Grid(STRIP_M, 1.0, boundary)
    fields = _peak_fields(STRIP_M, lambda: init_sine(grid, 0.1))
    assert fields <= PEAK_FIELDS_INIT_SINE, fields
