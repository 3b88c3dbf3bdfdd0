"""A robustness net for ``run()`` under ``AdaptiveStepping`` at user scales.

Domains of side L in [1, 1e3] with the interface width eps scaled by L, so
that energies grow like L^2; M in {4, 8, 16}; both potentials, both
boundaries, every scheme and shaping function; at most ~40 steps of tau_min.
Every run writes into an output directory.  Each run either returns, landing
on t_end with every diagnostics row finite, or raises a ``NumericFailure``
and leaves failure.json.  It never raises another type.
"""

import json
import math
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from acflow.errors import NumericFailure
from acflow.grid import BOUNDARIES, Grid
from acflow.harness import RunConfig, init_random, run
from acflow.potentials import SIGMAS, DoubleWell, FloryHuggins, make_sigma
from acflow.schemes import SCHEMES, SchemeConfig
from acflow.timestep import AdaptiveStepping


@st.composite
def adaptive_runs(draw):
    if draw(st.booleans()):
        pot = DoubleWell()
    else:
        theta = draw(st.floats(0.05, 2.0))
        pot = FloryHuggins(theta, theta * draw(st.floats(1.001, 3.0)))
    length = draw(st.floats(1.0, 1e3))
    grid = Grid(draw(st.sampled_from([4, 8, 16])), length,
                draw(st.sampled_from(BOUNDARIES)))
    scfg = SchemeConfig(
        eps=length * draw(st.floats(0.005, 0.2)),
        kappa=pot.lipschitz * draw(st.floats(1.0, 4.0)),
        potential=pot,
        sigma=make_sigma(draw(st.sampled_from(SIGMAS)), draw(st.floats(0.1, 50.0))),
        scheme=draw(st.sampled_from(SCHEMES)),
    )
    amplitude = pot.beta * draw(st.floats(0.0, 1.0))
    u0 = init_random(grid, -amplitude, amplitude, draw(st.integers(0, 2**32 - 1)))
    tau_min = draw(st.floats(1e-4, 10.0))
    stepping = AdaptiveStepping(tau_min, tau_min * draw(st.floats(1.0, 100.0)),
                                draw(st.floats(1e-6, 1e8)))
    return grid, scfg, u0, stepping, tau_min * draw(st.floats(0.01, 40.0))


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(adaptive_runs())
def test_adaptive_run_lands_or_leaves_a_failure_record(problem):
    grid, scfg, u0, stepping, t_end = problem
    with tempfile.TemporaryDirectory() as out:
        cfg = RunConfig(grid=grid, scheme=scfg, stepping=stepping, t_end=t_end,
                        out_dir=out)
        try:
            _, rows = run(u0, cfg)
        except NumericFailure as exc:
            with open(os.path.join(out, "failure.json")) as fh:
                record = json.load(fh)
            assert record["step"] == exc.step >= 1
            assert os.path.exists(os.path.join(out, record["field"]))
            return
    assert all(math.isfinite(value) for row in rows for value in vars(row).values())
    assert abs(rows[-1].t - t_end) <= 1e-12 * max(1.0, t_end)
