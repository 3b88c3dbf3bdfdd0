"""A physical law, not a self-reference: motion by mean curvature.

In the sharp-interface limit, u_t = eps^2 Lap u + f(u) with equal wells moves
an interface at normal speed eps^2 times its curvature, so a circle shrinks as
R(t)^2 = R0^2 - 2 eps^2 t (Allen & Cahn, Acta Metall. 27, 1979; Rubinstein,
Sternberg & Keller, SIAM J. Appl. Math. 49, 1989).  The convergence tests
measure the schemes against their own ei2 reference, so a wrong diffusion
coefficient or time scale would still converge there; it breaks this law.
"""

import numpy as np

from acflow.grid import Grid
from acflow.potentials import DoubleWell, ExpSigma
from acflow.schemes import SchemeConfig, initial_state, step

EPS = 0.02
TAU = 0.05
R0 = 0.35
SAMPLE_EVERY = 20
# The fitted dR^2/dt measured -0.85 % to -1.02 % off the law at M=128 and
# -1.46 % to -1.63 % at M=96, over R0 in {0.3, 0.35, 0.4}; the thin
# interface's own corrections and the finite tau shift it.  A 10 % error in
# the diffusion coefficient moves it by about 10 %.
SLOPE_RTOL = 0.025


def test_circle_area_shrinks_at_the_curvature_rate():
    grid = Grid(128)
    x = grid.nodes()
    u0 = np.tanh((R0 - np.hypot(x[:, None] - 0.5, x - 0.5)) / (np.sqrt(2.0) * EPS))
    pot = DoubleWell()
    # g stays 1 to about four digits, so the dynamics are the plain flow's.
    cfg = SchemeConfig(eps=EPS, kappa=pot.lipschitz, potential=pot,
                       sigma=ExpSigma(1e-2), scheme="ei2")
    state = initial_state(grid, cfg, u0)
    # To t = R0^2 / (4 eps^2), where R^2 has halved.
    n_steps = round(R0**2 / (4 * EPS**2) / TAU)
    times, radii2 = [], []
    for k in range(n_steps + 1):
        assert grid.norm_inf(state.u) <= pot.beta
        if k % SAMPLE_EVERY == 0:
            times.append(state.t)
            area = grid.h * grid.h * float(np.sum((state.u + pot.beta) / (2 * pot.beta)))
            radii2.append(area / np.pi)
        if k < n_steps:
            state = step(grid, cfg, state, TAU)
    slope = np.polyfit(times, radii2, 1)[0]
    assert abs(slope / (-2 * EPS**2) - 1.0) <= SLOPE_RTOL, slope
