"""Structure-preserving exponential integrators for Allen-Cahn type
gradient flows: pointwise-bound and energy-decay preserving first- and
second-order SAV schemes on uniform 2D grids."""

from .errors import AcflowError, NumericFailure, NumericRangeError
from .expkernel import StabilizedOperator, phi1
from .grid import Grid
from .harness import RunConfig, init_random, init_sine, run
from .potentials import (
    ArctanSigma,
    ConstantSigma,
    DoubleWell,
    ExpSigma,
    FloryHuggins,
    TanhSigma,
    bulk_energy,
    make_potential,
    make_sigma,
    total_energy,
)
from .schemes import (SchemeConfig, SolverState, converge, initial_state,
                      reference_solution, step)
from .timestep import AdaptiveStepping, UniformStepping
from .verify import verify_suite

__all__ = [
    "AcflowError",
    "AdaptiveStepping",
    "ArctanSigma",
    "ConstantSigma",
    "DoubleWell",
    "ExpSigma",
    "FloryHuggins",
    "Grid",
    "NumericFailure",
    "NumericRangeError",
    "RunConfig",
    "SchemeConfig",
    "SolverState",
    "StabilizedOperator",
    "TanhSigma",
    "UniformStepping",
    "bulk_energy",
    "converge",
    "init_random",
    "init_sine",
    "initial_state",
    "make_potential",
    "make_sigma",
    "phi1",
    "reference_solution",
    "run",
    "step",
    "total_energy",
    "verify_suite",
]

__version__ = "0.1.0"
