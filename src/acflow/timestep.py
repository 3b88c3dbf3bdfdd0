"""Time-step policies, uniform and energy-rate adaptive.  A policy alone
decides how a run reaches t_end: ``next_step(t, t_end, rows)`` is the step
from t given the run's rows so far (t = 0 first), or None when it is done.
Only a first call may refuse a run, if its largest step cannot move t at t_end."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import positive


def _slack(t_end: float) -> float:
    """How close to t_end a run, or a count of steps, counts as reaching it."""
    return 1e-12 * max(1.0, t_end)


def steps_to(t_end: float, tau: float, label: str) -> int:
    """The number of steps of size tau (named ``label``) from t = 0 to t_end;
    a ValueError unless tau is finite and positive and the count whole."""
    n = t_end / positive(label, tau)
    if not 0 <= n < math.inf or abs(round(n) * tau - t_end) > _slack(t_end):
        raise ValueError(f"t_end={t_end} is not a whole number of steps "
                         f"of {label}={tau}")
    return round(n)


@dataclass
class UniformStepping:
    """ceil((t_end - slack) / tau) steps of tau, the last clipped to t_end, so
    rounding in t adds no sliver of a step.  A count at or below 0 takes no
    step; a positive one is a ValueError if t_end + tau == t_end."""

    tau: float

    def __post_init__(self):
        positive("tau", self.tau)

    def next_step(self, t: float, t_end: float, rows) -> float | None:
        n = (t_end - _slack(t_end)) / self.tau
        if n > 0 and t_end + self.tau == t_end:
            raise ValueError(f"t_end={t_end} is too many steps of tau={self.tau} to count")
        if n <= 0 or len(rows) - 1 >= math.ceil(n):
            return None
        return min(self.tau, t_end - t)


@dataclass
class AdaptiveStepping:
    """Shrinks the step where the energy decays fast:

        tau = max(tau_min, tau_max / sqrt(1 + alpha * |dE/dt|^2))

    with dE/dt the backward difference quotient of the original energy.
    The first step, having no energy history, uses tau_min."""

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
        tau = self.tau_max / math.sqrt(1.0 + self.alpha * rate * rate)
        return float(max(self.tau_min, tau))

    def next_step(self, t: float, t_end: float, rows) -> float | None:
        """next_tau of the last two rows, clipped to t_end; a tail under tau_min
        joins the step within tau_max, else the remainder is halved (halves are
        >= tau_min / 2).  None near t_end; refused if t_end + tau_max == t_end."""
        slack = _slack(t_end)
        if t >= t_end - slack:
            return None
        if t_end + self.tau_max == t_end:
            raise ValueError(f"t_end={t_end} is too many steps of "
                             f"tau_max={self.tau_max} to count")
        tau = self.tau_min if len(rows) == 1 else self.next_tau(
            rows[-2].energy, rows[-1].energy, rows[-1].tau)
        remainder = t_end - t
        if remainder - tau >= self.tau_min or abs(remainder - tau) <= slack:
            return min(tau, remainder)
        return remainder if remainder <= self.tau_max else remainder / 2
