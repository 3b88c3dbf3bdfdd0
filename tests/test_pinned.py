"""Pinned trajectories: a guard for refactors of the step bodies.

Each scheme runs 20 steps at tau = 0.05 from the same seeded random field on
a 32 x 32 grid, once on a periodic double-well problem and once on a Neumann
Flory-Huggins problem, both with ExpSigma(10).  The final s, g, ||u||_2,
max|u| and sum(u) were recorded at %.17g from the original step bodies; a
refactor that is meant to preserve the arithmetic must reproduce them to
1e-12 relative.  The same runs on a 300 x 300 grid, 5 steps each, were
recorded from the whole-field kernels: there the potentials and the spectral
advance run in row strips, the last one ragged.
"""

import numpy as np
import pytest

from acflow.grid import Grid
from acflow.harness import init_random
from acflow.potentials import DoubleWell, ExpSigma, FloryHuggins
from acflow.schemes import SchemeConfig, initial_state, step

SEED = 7
STEPS = 20
STRIP_M, STRIP_STEPS = 300, 5
TAU = 0.05

PROBLEMS = {
    "periodic-dw": ("periodic", DoubleWell),
    "neumann-fh": ("neumann", FloryHuggins),
}

# (scheme, problem): (s, g, ||u||_2, max|u|, sum(u)) after STEPS steps.
PINNED = {
    ("ei1", "periodic-dw"): (0.1306757038883522, 1.0015487000194339, 0.5569972812883256, 0.90190688256019125, -24.793114043460307),
    ("ei2", "periodic-dw"): (0.12850849408620324, 1.0006728835516256, 0.56261019117362965, 0.90435080193656936, -25.335540735400247),
    ("stab1", "periodic-dw"): (0.13255305965313033, 1.0014315118305186, 0.55167445323162934, 0.89780371148142901, -24.310090346420552),
    ("ei1", "neumann-fh"): (-0.10961165368916899, 1.0013349399527696, 0.55761065986872416, 0.94148268167902727, -23.432018220561574),
    ("ei2", "neumann-fh"): (-0.11560001765137465, 1.0064098351765525, 0.57636908949696819, 0.94587505326308607, -25.25200058888187),
    ("stab1", "neumann-fh"): (-0.10468428536851922, 1.0010493881650051, 0.54303573481371048, 0.93374264923353401, -22.028952911214112),
}


# (scheme, problem): the same quantities after STRIP_STEPS steps at M=STRIP_M.
PINNED_STRIPS = {
    ("ei1", "periodic-dw"): (0.27402503415929919, 1.3134690864303458, 0.083536875124799043, 0.38801486792562034, 101.02923515527239),
    ("ei2", "periodic-dw"): (0.259383139946821, 1.1337936683600895, 0.080374349814457652, 0.37591415419139262, 100.90944557978685),
    ("stab1", "periodic-dw"): (0.26480202055665075, 1.2000032803977068, 0.086306672578427959, 0.39990528212106058, 97.534340999055331),
    ("ei1", "neumann-fh"): (0.030448252855428074, 1.3939077518286467, 0.087455876703132943, 0.43683935568804805, 93.929398715644808),
    ("ei2", "neumann-fh"): (0.050687648605945643, 1.7054976700159339, 0.086801509094208001, 0.42842452526285041, 101.93233447922262),
    ("stab1", "neumann-fh"): (0.020716075853001521, 1.2700136142873977, 0.094389702594330993, 0.45974966298032249, 90.314318642793722),
}


def _final(scheme, problem, m, steps):
    boundary, potential_cls = PROBLEMS[problem]
    grid = Grid(m, 1.0, boundary)
    pot = potential_cls()
    cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                       sigma=ExpSigma(10.0), scheme=scheme)
    state = initial_state(grid, cfg, init_random(grid, -0.8, 0.8, SEED))
    for _ in range(steps):
        state = step(grid, cfg, state, TAU)
    return (state.s, state.g, grid.norm2(state.u), grid.norm_inf(state.u),
            float(np.sum(state.u)))


@pytest.mark.parametrize("scheme, problem", sorted(PINNED))
def test_trajectory_matches_pins(scheme, problem):
    got = _final(scheme, problem, 32, STEPS)
    assert got == pytest.approx(PINNED[scheme, problem], rel=1e-12, abs=0.0)


@pytest.mark.parametrize("scheme, problem", sorted(PINNED_STRIPS))
def test_strip_trajectory_matches_pins(scheme, problem):
    got = _final(scheme, problem, STRIP_M, STRIP_STEPS)
    assert got == pytest.approx(PINNED_STRIPS[scheme, problem], rel=1e-12, abs=0.0)
