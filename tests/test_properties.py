"""Property-based checks of the unconditional guarantees.

For any boundary, potential (Flory-Huggins with theta in [0.05, 2] and
theta_c / theta in [1.001, 3]), shaping function, rate a, stabilization
kappa >= Lipschitz bound, step tau in [1e-3, 1] and interface width eps,
every scheme must keep the sup norm below beta (MBP), never raise the
modified energy, and keep the auxiliary variable below the initial total
energy.  The bounds are the same as in the acceptance suite.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from acflow.grid import Grid
from acflow.harness import init_random
from acflow.potentials import (
    DoubleWell,
    FloryHuggins,
    interface_energy,
    make_sigma,
    total_energy,
)
from acflow.schemes import SCHEMES, SchemeConfig, initial_state, step
from acflow.verify import stabilization_bound

MBP_TOL = 1e-12
ENERGY_TOL = 1e-10


@st.composite
def flory_huggins(draw):
    theta = draw(st.floats(0.05, 2.0))
    return FloryHuggins(theta, theta * draw(st.floats(1.001, 3.0)))


@st.composite
def problems(draw):
    pot = draw(st.one_of(st.just(DoubleWell()), flory_huggins()))
    grid = Grid(draw(st.sampled_from([4, 8, 16])), 1.0,
                draw(st.sampled_from(["periodic", "neumann"])))
    cfg = SchemeConfig(
        eps=draw(st.floats(0.005, 0.2)),
        kappa=pot.lipschitz * draw(st.floats(1.0, 4.0)),
        potential=pot,
        sigma=make_sigma(draw(st.sampled_from(["const", "exp", "arctan", "tanh"])),
                         draw(st.floats(0.1, 50.0))),
        scheme=draw(st.sampled_from(SCHEMES)),
    )
    amplitude = pot.beta * draw(st.floats(0.0, 1.0))
    u0 = init_random(grid, -amplitude, amplitude, draw(st.integers(0, 2**32 - 1)))
    return grid, cfg, u0, draw(st.floats(1e-3, 1.0)), draw(st.integers(1, 10))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(problems())
def test_mbp_energy_decay_and_aux_bound(problem):
    grid, cfg, u0, tau, n_steps = problem
    e0 = total_energy(grid, cfg.potential, u0, cfg.eps)
    state = initial_state(grid, cfg, u0)
    prev = interface_energy(grid, grid.fast_forward(state.u), cfg.eps) + state.s
    for _ in range(n_steps):
        state = step(grid, cfg, state, tau)
        curr = interface_energy(grid, grid.fast_forward(state.u), cfg.eps) + state.s
        assert grid.norm_inf(state.u) <= cfg.potential.beta + MBP_TOL
        assert curr <= prev + ENERGY_TOL
        assert state.s <= e0 + ENERGY_TOL
        prev = curr


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(flory_huggins())
def test_flory_huggins_bounds(pot):
    assert 0.0 < pot.beta < 1.0
    # beta is the root of f, taken on the side where f(beta) <= 0
    assert pot.f(pot.beta - 1e-11) > 0.0 >= pot.f(pot.beta)
    # f' = theta_c - theta / (1 - u^2), sampled densely on [0, beta]
    u = np.linspace(0.0, pot.beta, 100_001)
    fprime = pot.theta_c - pot.theta / (1.0 - u * u)
    assert np.max(np.abs(fprime)) <= pot.lipschitz
    check = stabilization_bound(pot, np.random.default_rng(0))
    assert check.passed, check.detail
