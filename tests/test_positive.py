"""Every parameter the guarantees need finite and positive rejects NaN and
infinity with a ValueError at construction or call, before any stepping."""

import numpy as np
import pytest

from acflow.errors import positive
from acflow.expkernel import StabilizedOperator
from acflow.grid import Grid
from acflow.harness import RunConfig
from acflow.potentials import DoubleWell, ExpSigma
from acflow.schemes import SCHEMES, SchemeConfig, initial_state, step, steps_to
from acflow.timestep import AdaptiveStepping, UniformStepping


def scheme_config(eps=0.01, kappa=2.0, scheme="ei1"):
    return SchemeConfig(eps=eps, kappa=kappa, potential=DoubleWell(),
                        sigma=ExpSigma(1.0), scheme=scheme)


def step_with(scheme):
    def call(tau):
        grid = Grid(8)
        cfg = scheme_config(scheme=scheme)
        step(grid, cfg, initial_state(grid, cfg, np.zeros((8, 8))), tau)
    return call


GRID8 = Grid(8)
OPERATOR = StabilizedOperator(GRID8, 2.0, 1e-4)
CONSTRUCTORS = {
    "Grid.length": lambda x: Grid(8, x),
    "StabilizedOperator.c": lambda x: StabilizedOperator(GRID8, x, 1e-4),
    "StabilizedOperator.eps2": lambda x: StabilizedOperator(GRID8, 2.0, x),
    "advance_spectral.tau": lambda x: OPERATOR.advance_spectral(
        x, GRID8.fast_forward(np.ones((8, 8))), np.zeros((8, 8)), resolvent=False),
    "advance_spectral.tau[resolvent]": lambda x: OPERATOR.advance_spectral(
        x, GRID8.fast_forward(np.ones((8, 8))), np.zeros((8, 8)), resolvent=True),
    "SchemeConfig.eps": lambda x: scheme_config(eps=x),
    "SchemeConfig.kappa": lambda x: scheme_config(kappa=x),
    **{f"step.tau[{s}]": step_with(s) for s in SCHEMES},
    "RunConfig.t_end": lambda x: RunConfig(grid=GRID8, scheme=scheme_config(),
                                           stepping=UniformStepping(0.1), t_end=x),
    "UniformStepping.tau": lambda x: UniformStepping(x),
    "AdaptiveStepping.tau_min": lambda x: AdaptiveStepping(x, 0.1, 1e5),
    "AdaptiveStepping.tau_max": lambda x: AdaptiveStepping(1e-4, x, 1e5),
    "AdaptiveStepping.alpha": lambda x: AdaptiveStepping(1e-4, 0.1, x),
    "next_tau.tau_prev": lambda x: AdaptiveStepping(1e-4, 0.1, 1e5).next_tau(
        1.0, 0.5, x),
    "ExpSigma.a": lambda x: ExpSigma(x),
    "steps_to.tau": lambda x: steps_to(1.0, x, "tau"),
    "steps_to.t_end": lambda x: steps_to(x, 0.25, "tau"),
}


@pytest.mark.parametrize("value", [np.nan, np.inf])
@pytest.mark.parametrize("name", CONSTRUCTORS)
def test_nonfinite_parameter_rejected(name, value):
    with pytest.raises(ValueError):
        CONSTRUCTORS[name](value)


@pytest.mark.parametrize("value", [1, np.float64(0.5), 2.5])
def test_positive_returns_a_float(value):
    out = positive("x", value)
    assert type(out) is float and out == value
