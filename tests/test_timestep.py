import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from acflow.timestep import AdaptiveStepping, UniformStepping, steps_to


class TestAdaptiveFormula:
    ctrl = AdaptiveStepping(tau_min=1e-4, tau_max=0.1, alpha=1e5)

    def test_flat_energy_gives_tau_max(self):
        assert self.ctrl.next_tau(1.3, 1.3, 0.01) == self.ctrl.tau_max

    def test_steep_energy_clamps_to_tau_min(self):
        assert self.ctrl.next_tau(1e9, 0.0, 1e-6) == self.ctrl.tau_min

    def test_algebraic_midpoint(self):
        # |dE/dt| = sqrt(3/alpha)  =>  tau = tau_max / sqrt(4) = tau_max / 2
        rate = np.sqrt(3.0 / self.ctrl.alpha)
        tau = self.ctrl.next_tau(0.0, -rate, 1.0)
        assert tau == pytest.approx(self.ctrl.tau_max / 2, rel=1e-13)

    def test_output_always_in_range(self):
        rng = np.random.default_rng(0)
        for _ in range(500):
            tau = self.ctrl.next_tau(rng.uniform(-10, 10), rng.uniform(-10, 10),
                                     rng.uniform(1e-6, 1.0))
            assert self.ctrl.tau_min <= tau <= self.ctrl.tau_max

    def test_monotone_in_energy_rate(self):
        rates = np.linspace(0.0, 1.0, 50)
        taus = [self.ctrl.next_tau(0.0, -r, 1.0) for r in rates]
        assert all(a >= b for a, b in zip(taus, taus[1:]))

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            AdaptiveStepping(tau_min=0.2, tau_max=0.1, alpha=1.0)
        with pytest.raises(ValueError):
            AdaptiveStepping(tau_min=0.0, tau_max=0.1, alpha=1.0)
        with pytest.raises(ValueError):
            self.ctrl.next_tau(0.0, 0.0, 0.0)


def test_uniform_rejects_nonpositive():
    with pytest.raises(ValueError):
        UniformStepping(0.0)


def _steps(stepping, t_end, energies=(0.0,)):
    """The steps a policy takes from t = 0 to t_end, with t summed as run()
    sums it and rows carrying ``energies`` in turn."""
    t, rows = 0.0, [SimpleNamespace(energy=energies[0], tau=0.0)]
    while (tau := stepping.next_step(t, t_end, rows)) is not None:
        yield tau
        t += tau
        rows.append(SimpleNamespace(energy=energies[len(rows) % len(energies)],
                                    tau=tau))


def _march(stepping, t_end, energies=(0.0,)):
    return list(_steps(stepping, t_end, energies))


# Summing t rounds: 100,000 steps of 0.003 sum to 8e-10 short of 300, so a
# policy that compared t with t_end would add a 100,001st step of 8e-10.
@pytest.mark.parametrize("tau, t_end, expected", [
    (0.003, 300.0, [0.003] * 100_000),
    (1e-4, 20.0, [1e-4] * 200_000),
    (0.4, 1.0, pytest.approx([0.4, 0.4, 0.2], rel=1e-12)),
], ids=["0.003-to-300", "1e-4-to-20", "clipped-last-step"])
def test_uniform_steps_are_counted(tau, t_end, expected):
    assert _march(UniformStepping(tau), t_end) == expected


def _refused_or_landed(stepping, t_end, energies=(0.0,)):
    """The steps a policy takes to t_end, or None if it refuses the run; a
    refusal must come at the first call, and a run must land within slack."""
    taus, t = [], 0.0
    try:
        for tau in _steps(stepping, t_end, energies):
            assert len(taus) < 10_000, "the policy does not reach t_end"
            taus.append(tau)
            t += tau
    except ValueError:
        assert taus == [], "refused after its first call"
        return None
    assert abs(t - t_end) <= 1e-12 * t_end
    return taus


@st.composite
def adaptive_runs(draw):
    tau_min = draw(st.floats(1e-6, 1e3))
    tau_max = tau_min * draw(st.floats(1.0, 4.0))
    # Either a horizon of at most ~40 steps or one that tau_max cannot move.
    t_end = draw(st.one_of(st.floats(0.01, 40.0).map(lambda r: r * tau_min),
                           st.integers(54, 900).map(lambda k: tau_max * 2.0**k)))
    stepping = AdaptiveStepping(tau_min, tau_max, draw(st.floats(1e-12, 1e12)))
    energies = draw(st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=8))
    return stepping, t_end, energies


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(adaptive_runs())
def test_adaptive_policy_contract(run):
    stepping, t_end, energies = run
    taus = _refused_or_landed(stepping, t_end, energies)
    assert (taus is None) == (t_end + stepping.tau_max == t_end)
    if taus is None:
        return
    slack = 1e-12 * t_end
    if t_end < stepping.tau_min:
        assert taus == [t_end]
    elif stepping.tau_max >= 2 * stepping.tau_min:
        assert all(stepping.tau_min - slack <= tau for tau in taus)
    else:
        assert all(stepping.tau_min / 2 <= tau for tau in taus)
    assert all(tau <= stepping.tau_max for tau in taus)


@st.composite
def uniform_runs(draw):
    tau = draw(st.floats(1e-320, 1e300))
    # At most ~100 steps, a horizon tau cannot move, or at most ~100 steps to
    # a horizon at or below 1e-12, which the slack, relative to t_end, leaves
    # to be stepped.
    tau, t_end = draw(st.one_of(
        st.floats(0.01, 100.0).map(lambda r: (tau, r * tau)),
        st.integers(54, 900).map(lambda k: (tau, tau * 2.0**k)),
        st.tuples(st.floats(1e-300, 1e-12), st.floats(0.01, 100.0)).map(
            lambda p: (p[0] / p[1], p[0]))))
    assume(0.0 < t_end < math.inf)
    return UniformStepping(tau), t_end


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(uniform_runs())
def test_uniform_policy_contract(run):
    stepping, t_end = run
    taus = _refused_or_landed(stepping, t_end)
    assert (taus is None) == (t_end + stepping.tau == t_end)
    assert taus is None or 1 <= len(taus) <= math.ceil(t_end / stepping.tau)


@pytest.mark.parametrize("t_end, tau", [(1e-12, 3e-13), (5e-13, 3e-13)])
def test_steps_to_refuses_a_count_that_is_not_whole(t_end, tau):
    # 3 and 2 steps end at 9e-13 and 6e-13: short of t_end by far more than
    # the slack, 1e-12 * t_end.
    with pytest.raises(ValueError, match="not a whole number of steps"):
        steps_to(t_end, tau, "tau")


def test_long_adaptive_run_below_unit_horizon_lands():
    # Tens of thousands of steps to t_end = 0.01, whose slack is 1e-14, with
    # t summed as run() sums it.
    stepping = AdaptiveStepping(tau_min=1e-7, tau_max=4e-7, alpha=1e6)
    taus = _march(stepping, 0.01, energies=(0.0, -3e-10, -3.1e-10, 2e-11, -1e-9))
    t = 0.0
    for tau in taus:
        t += tau
    assert 10_000 < len(taus) < 100_000
    assert all(stepping.tau_min / 2 <= tau <= stepping.tau_max for tau in taus)
    assert abs(t - 0.01) <= 1e-12 * 0.01
