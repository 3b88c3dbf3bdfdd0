import numpy as np
import pytest

from acflow.timestep import AdaptiveStepping, UniformStepping


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


def _march(stepping, t_end):
    """The steps a policy takes from t = 0 to t_end, with t summed as run()
    sums it."""
    t, rows, taus = 0.0, [None], []
    while (tau := stepping.next_step(t, t_end, rows)) is not None:
        t += tau
        rows.append(None)
        taus.append(tau)
    return taus


# Summing t rounds: 100,000 steps of 0.003 sum to 8e-10 short of 300, so a
# policy that compared t with t_end would add a 100,001st step of 8e-10.
@pytest.mark.parametrize("tau, t_end, expected", [
    (0.003, 300.0, [0.003] * 100_000),
    (1e-4, 20.0, [1e-4] * 200_000),
    (0.4, 1.0, pytest.approx([0.4, 0.4, 0.2], rel=1e-12)),
], ids=["0.003-to-300", "1e-4-to-20", "clipped-last-step"])
def test_uniform_steps_are_counted(tau, t_end, expected):
    assert _march(UniformStepping(tau), t_end) == expected
