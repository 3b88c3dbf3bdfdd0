"""Property-based checks of the unconditional guarantees.

For any boundary, potential, shaping function, rate a, stabilization
kappa >= Lipschitz bound, step tau in [1e-3, 1] and interface width eps,
every scheme must keep the sup norm below beta (MBP), never raise the
modified energy, and keep the auxiliary variable below the initial total
energy.  The bounds are the same as in the acceptance suite.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from acflow.grid import Grid
from acflow.harness import init_random
from acflow.potentials import (
    DoubleWell,
    FloryHuggins,
    make_sigma,
    modified_energy,
    total_energy,
)
from acflow.schemes import SCHEMES, SchemeConfig, initial_state, step

MBP_TOL = 1e-12
ENERGY_TOL = 1e-10

POTENTIALS = {"double-well": DoubleWell(), "flory-huggins": FloryHuggins()}


@st.composite
def problems(draw):
    pot = POTENTIALS[draw(st.sampled_from(sorted(POTENTIALS)))]
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
    prev = modified_energy(grid, state.u, state.s, cfg.eps)
    for _ in range(n_steps):
        state = step(grid, cfg, state, tau)
        curr = modified_energy(grid, state.u, state.s, cfg.eps)
        assert grid.norm_inf(state.u) <= cfg.potential.beta + MBP_TOL
        assert curr <= prev + ENERGY_TOL
        assert state.s <= e0 + ENERGY_TOL
        prev = curr
