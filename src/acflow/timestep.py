"""Uniform and energy-rate-based adaptive time-step control."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import positive


@dataclass
class UniformStepping:
    tau: float

    def __post_init__(self):
        positive("tau", self.tau)


@dataclass
class AdaptiveStepping:
    """Shrinks the step where the energy decays fast:

        tau = max(tau_min, tau_max / sqrt(1 + alpha * |dE/dt|^2))

    with dE/dt the backward difference quotient of the original energy.
    The first step, having no energy history, uses tau_min.
    """

    tau_min: float
    tau_max: float
    alpha: float

    def __post_init__(self):
        if positive("tau_min", self.tau_min) > positive("tau_max", self.tau_max):
            raise ValueError(
                f"need tau_min <= tau_max, got {self.tau_min}, {self.tau_max}")
        positive("alpha", self.alpha)

    def next_tau(self, e_prev: float, e_curr: float, tau_prev: float) -> float:
        rate = (e_curr - e_prev) / positive("tau_prev", tau_prev)
        tau = self.tau_max / np.sqrt(1.0 + self.alpha * rate * rate)
        return float(max(self.tau_min, tau))
