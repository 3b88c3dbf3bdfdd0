"""Work done per step: transforms, bulk-energy evaluations and stencils.

Each counted function is wrapped with monkeypatch, so the counts are exact.
The ei2 step transforms u^n once for both stages, every state carries its
bulk energy E1(u) from the step that made it, and a diagnostics row
evaluates the gradient once.
"""

import pytest

from acflow.grid import Grid
from acflow.harness import RunConfig, init_random, run
from acflow.potentials import DoubleWell, ExpSigma, FloryHuggins
from acflow.schemes import SchemeConfig, initial_state, step
from acflow.timestep import UniformStepping

STEPS = 4
TRANSFORMS_PER_STEP = {"ei1": 3, "ei2": 5, "stab1": 2}
F_PER_STEP = {"ei1": 1, "ei2": 2, "stab1": 1}

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


def _setup(problem, scheme):
    boundary, potential = PROBLEMS[problem]
    grid = Grid(16, 1.0, boundary)
    pot = potential()
    cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                       sigma=ExpSigma(10.0), scheme=scheme)
    return grid, cfg, init_random(grid, -0.8, 0.8, 3)


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
def test_step_costs(monkeypatch, problem, scheme):
    grid, cfg, u0 = _setup(problem, scheme)
    state = initial_state(grid, cfg, u0)
    forward = _counter(monkeypatch, Grid, "fast_forward")
    inverse = _counter(monkeypatch, Grid, "fast_inverse")
    bulk = _counter(monkeypatch, type(cfg.potential), "F")
    for _ in range(STEPS):
        state = step(grid, cfg, state, 0.05)
    assert forward[0] + inverse[0] == TRANSFORMS_PER_STEP[scheme] * STEPS
    assert bulk[0] == F_PER_STEP[scheme] * STEPS


@pytest.mark.parametrize("problem", PROBLEMS)
@pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
def test_run_costs(monkeypatch, problem, scheme):
    # The diagnostics row reuses the step's E1(u^{n+1}): no F beyond the
    # steps' own, one at start-up, and one gradient per row.
    grid, cfg, u0 = _setup(problem, scheme)
    bulk = _counter(monkeypatch, type(cfg.potential), "F")
    stencil = _counter(monkeypatch, Grid, "grad_norm2_sq")
    _, rows = run(u0, RunConfig(grid=grid, scheme=cfg,
                                stepping=UniformStepping(0.05),
                                t_end=STEPS * 0.05))
    assert len(rows) == STEPS + 1
    assert bulk[0] == F_PER_STEP[scheme] * STEPS + 1
    assert stencil[0] == len(rows)

