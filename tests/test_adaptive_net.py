"""A robustness net for ``run()`` under ``AdaptiveStepping`` at user scales.

Domains of side L in [1, 1e3] with the interface width eps scaled by L, so
that energies grow like L^2; M in {4, 8, 16}; both potentials, both
boundaries, every scheme and shaping function; at most ~40 steps of tau_min.
Every run writes into an output directory.  Each run either returns, landing
on t_end with every diagnostics row finite, or raises a ``NumericFailure``
and leaves failure.json.  It never raises another type.  Runs that the
net once saw leave the range of the shaping ratio are pinned as cases that
land.
"""

import json
import math
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from acflow.errors import NumericFailure
from acflow.grid import BOUNDARIES, Grid
from acflow.harness import RunConfig, init_random, run
from acflow.potentials import SIGMAS, DoubleWell, FloryHuggins, make_sigma
from acflow.schemes import SCHEMES, SchemeConfig
from acflow.timestep import AdaptiveStepping


def _problem(pot_spec, length, m, boundary, eps_factor, kappa_factor, sigma, a,
             scheme, amplitude_factor, seed, tau_min, tau_max_factor, alpha,
             t_end_factor):
    """(grid, scheme config, u0, policy, t_end) of one net example; pot_spec
    is None for the double well or (theta, theta_c / theta)."""
    pot = DoubleWell() if pot_spec is None else FloryHuggins(pot_spec[0],
                                                             pot_spec[0] * pot_spec[1])
    grid = Grid(m, length, boundary)
    scfg = SchemeConfig(eps=length * eps_factor, kappa=pot.lipschitz * kappa_factor,
                        potential=pot, sigma=make_sigma(sigma, a), scheme=scheme)
    amplitude = pot.beta * amplitude_factor
    u0 = init_random(grid, -amplitude, amplitude, seed)
    stepping = AdaptiveStepping(tau_min, tau_min * tau_max_factor, alpha)
    return grid, scfg, u0, stepping, tau_min * t_end_factor


@st.composite
def adaptive_runs(draw):
    pot_spec = None if draw(st.booleans()) else (draw(st.floats(0.05, 2.0)),
                                                 draw(st.floats(1.001, 3.0)))
    # Keyword arguments are evaluated in the order written: the draw order.
    return _problem(
        pot_spec,
        length=draw(st.floats(1.0, 1e3)),
        m=draw(st.sampled_from([4, 8, 16])),
        boundary=draw(st.sampled_from(BOUNDARIES)),
        eps_factor=draw(st.floats(0.005, 0.2)),
        kappa_factor=draw(st.floats(1.0, 4.0)),
        sigma=draw(st.sampled_from(SIGMAS)),
        a=draw(st.floats(0.1, 50.0)),
        scheme=draw(st.sampled_from(SCHEMES)),
        amplitude_factor=draw(st.floats(0.0, 1.0)),
        seed=draw(st.integers(0, 2**32 - 1)),
        tau_min=draw(st.floats(1e-4, 10.0)),
        tau_max_factor=draw(st.floats(1.0, 100.0)),
        alpha=draw(st.floats(1e-6, 1e8)),
        t_end_factor=draw(st.floats(0.01, 40.0)),
    )


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


# Runs of a 3,000-example derandomized net that left the range of the
# shaping ratio at steps 1-3 while sigma read energy per domain, which grows
# with L^2; read per unit area, each lands on t_end.
FORMER_SHAPING_FAILURES = {
    "exp-ei2-fh-848": ((1.9437615915008208, 2.022504501468452), 848.3148250011093,
                       16, "neumann", 0.12322495863776355, 1.4410082362939902,
                       "exp", 42.30130464383712, "ei2", 1.0, 1422060,
                       7.279015630334263, 23.74626684969273, 85797083.96239886, 0.5),
    "exp-stab1-dw-62": (None, 61.548549733113916, 8, "neumann", 0.012279066089461972,
                        3.7713698200259564, "exp", 19.19518868683674, "stab1",
                        0.6667510098965131, 1433449, 2.00001, 2.4389401975668976,
                        87576376.00663741, 24.766189102580256),
    "exp-ei1-dw-205": (None, 204.51021666364684, 4, "neumann", 0.12170052509610987,
                       1.5124820612164798, "exp", 33.98893833260867, "ei1",
                       0.6806791809941263, 574, 9.769644538659174, 8.269055430921362,
                       15398416.933351893, 29.355251283004048),
    "tanh-ei1-fh-684": ((1.3789890590617864, 1.350866072441384), 684.3139724941883,
                        4, "neumann", 0.1352638577782424, 1.2368701468737868,
                        "tanh", 41.96340833080453, "ei1", 0.5476685210830751, 424,
                        0.5, 2.4833956899547536, 98115030.03679669, 22.349654312920933),
    "tanh-ei2-fh-999": ((1.6989978388899634, 2.0), 999.0, 16, "periodic",
                        0.13525322761130373, 2.893211457925707, "tanh",
                        31.121733883478612, "ei2", 0.8402428574026617, 356123,
                        0.99999, 100.0, 49734692.5579941, 0.43019670940479665),
    "tanh-stab1-fh-188": ((1.1043619768488309, 1.7408211118047159), 187.56910328619645,
                          16, "neumann", 0.005, 2.7442969737898237, "tanh",
                          11.711364852028469, "stab1", 0.6175871968123489, 229650,
                          8.009416076904756, 1.0423860957062696, 1.000001,
                          4.446385553783952),
}


@pytest.mark.parametrize("case", FORMER_SHAPING_FAILURES)
def test_former_shaping_failure_lands(case):
    grid, scfg, u0, stepping, t_end = _problem(*FORMER_SHAPING_FAILURES[case])
    _, rows = run(u0, RunConfig(grid=grid, scheme=scfg, stepping=stepping,
                                t_end=t_end))
    assert all(math.isfinite(value) for row in rows for value in vars(row).values())
    assert abs(rows[-1].t - t_end) <= 1e-12 * max(1.0, t_end)
