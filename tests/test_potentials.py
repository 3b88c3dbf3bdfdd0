import numpy as np
import pytest
from scipy.special import xlogy

from acflow.errors import DomainBoundError
from acflow.grid import Grid
from acflow.potentials import (
    ArctanSigma,
    ConstantSigma,
    DoubleWell,
    ExpSigma,
    FloryHuggins,
    TanhSigma,
    bulk_energy,
    make_potential,
    modified_energy,
    total_energy,
)
from acflow.verify import stabilization_bound


class TestDoubleWell:
    pot = DoubleWell()

    def test_reaction_values(self):
        assert self.pot.f(0.0) == 0.0
        assert self.pot.f(1.0) == 0.0
        assert self.pot.f(0.5) == pytest.approx(0.375)

    def test_potential_values(self):
        assert self.pot.F(1.0) == 0.0
        assert self.pot.F(-1.0) == 0.0
        assert self.pot.F(0.0) == 0.25

    def test_bounds(self):
        assert self.pot.beta == 1.0
        assert self.pot.lipschitz == 2.0


class TestFloryHuggins:
    pot = FloryHuggins()

    def test_beta_root(self):
        # positive root of f for theta=0.8, theta_c=1.6
        assert self.pot.beta == pytest.approx(0.9575, abs=5e-5)
        assert self.pot.f(self.pot.beta) == pytest.approx(0.0, abs=1e-10)

    def test_lipschitz_bound(self):
        assert self.pot.lipschitz == pytest.approx(8.02, abs=0.01)

    def test_F_at_zero(self):
        assert self.pot.F(0.0) == 0.0
        assert np.all(self.pot.F(np.zeros((4, 4))) == 0.0)

    def test_F_is_even_bitwise(self):
        u = np.random.default_rng(0).uniform(-self.pot.beta, self.pot.beta, 10_000)
        assert np.array_equal(self.pot.F(-u), self.pot.F(u))

    def test_F_matches_xlogy_form(self):
        # The log1p form against the textbook (1+u)log(1+u) + (1-u)log(1-u).
        def reference(u):
            ent = xlogy(1.0 + u, 1.0 + u) + xlogy(1.0 - u, 1.0 - u)
            return 0.5 * self.pot.theta * ent - 0.5 * self.pot.theta_c * u**2

        u = np.concatenate([np.linspace(-self.pot.beta, self.pot.beta, 100_001),
                            [1.0 - 1e-12, -(1.0 - 1e-12)]])
        assert np.max(np.abs(self.pot.F(u) - reference(u))) <= 1e-15

    def test_near_critical_parameters_accepted(self):
        # theta_c / theta = 1.01: f(-beta) rounds to a tiny negative value,
        # which must not be mistaken for a failed sign condition.
        pot = FloryHuggins(1.0, 1.01)
        assert 0.0 < pot.beta < 1.0
        assert pot.f(pot.beta) == pytest.approx(0.0, abs=1e-12)
        assert pot.lipschitz == pytest.approx(abs(1.01 - 1.0 / (1.0 - pot.beta**2)),
                                              rel=1e-15)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            FloryHuggins(theta=0.8, theta_c=0.8)
        with pytest.raises(ValueError):
            FloryHuggins(theta=-1.0, theta_c=1.0)

    def test_domain_error_at_unit(self):
        with pytest.raises(DomainBoundError):
            self.pot.f(np.array([0.0, 1.0]))
        with pytest.raises(DomainBoundError):
            self.pot.F(1.5)


@pytest.mark.parametrize("pot", [DoubleWell(), FloryHuggins()])
class TestReactionProperties:
    def test_odd_symmetry(self, pot):
        rng = np.random.default_rng(0)
        u = rng.uniform(-pot.beta, pot.beta, 200)
        assert np.allclose(pot.f(-u), -pot.f(u), atol=1e-12)

    def test_f_is_minus_F_prime(self, pot):
        # central finite differences as the independent oracle
        u = np.linspace(-pot.beta + 1e-3, pot.beta - 1e-3, 200)
        d = 1e-6
        fd = -(pot.F(u + d) - pot.F(u - d)) / (2 * d)
        assert np.max(np.abs(fd - pot.f(u))) <= 1e-8

    def test_stabilization_bound(self, pot):
        check = stabilization_bound(pot, np.random.default_rng(1))
        assert check.passed, check.detail

    def test_sign_condition(self, pot):
        assert pot.f(pot.beta) <= 0.0 <= pot.f(-pot.beta)


class TestSigma:
    def test_constant_ratio_is_exactly_one(self):
        assert ConstantSigma().ratio(17.2, -4.1) == 1.0

    def test_ratio_at_equal_arguments(self):
        for s in (ExpSigma(7.0), ArctanSigma(), TanhSigma()):
            assert s.ratio(0.37, 0.37) == pytest.approx(1.0, rel=1e-15)

    def test_exp_ratio_closed_form(self):
        assert ExpSigma(1.0).ratio(np.log(2.0), 0.0) == pytest.approx(2.0, rel=1e-14)

    def test_exp_ratio_survives_large_rate(self):
        # a = 100 with O(1) arguments must not overflow through the factors
        assert ExpSigma(100.0).ratio(0.25, 0.24) == pytest.approx(np.e, rel=1e-12)

    def test_positivity_and_monotonicity(self):
        rng = np.random.default_rng(2)
        for s in (ConstantSigma(), ExpSigma(2.0), ArctanSigma(), TanhSigma()):
            for _ in range(200):
                r1, r2, e1 = sorted(rng.uniform(-5, 5, 2)) + [rng.uniform(-5, 5)]
                g1, g2 = s.ratio(r1, e1), s.ratio(r2, e1)
                assert g1 > 0 and g2 > 0
                assert g1 <= g2 * (1 + 1e-13)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            ExpSigma(-1.0)


class TestEnergies:
    grid = Grid(12, 1.0)
    pot = DoubleWell()

    def test_bulk_energy_pure_state(self):
        assert bulk_energy(self.grid, self.pot, np.ones((12, 12))) == \
            pytest.approx(0.0, abs=1e-15)

    def test_bulk_energy_zero_state(self):
        L = self.grid.length
        assert bulk_energy(self.grid, self.pot, np.zeros((12, 12))) == \
            pytest.approx(L * L / 4, rel=1e-14)

    def test_bulk_energy_matches_direct_sum(self):
        v = np.random.default_rng(3).uniform(-0.9, 0.9, (12, 12))
        direct = self.grid.h**2 * float(np.sum(self.pot.F(v)))
        assert bulk_energy(self.grid, self.pot, v) == pytest.approx(direct, rel=1e-14)

    def test_total_energy_trivials(self):
        assert total_energy(self.grid, self.pot, np.ones((12, 12)), 0.01) == \
            pytest.approx(0.0, abs=1e-15)
        assert total_energy(self.grid, self.pot, np.zeros((12, 12)), 0.01) == \
            pytest.approx(0.25, rel=1e-14)

    def test_total_energy_matches_raw_sums(self):
        eps = 0.05
        v = np.random.default_rng(4).uniform(-0.9, 0.9, (12, 12))
        gx, gy = self.grid.gradient(v)
        raw = (0.5 * eps**2 * self.grid.h**2 * float(np.sum(gx * gx + gy * gy))
               + self.grid.h**2 * float(np.sum(self.pot.F(v))))
        assert total_energy(self.grid, self.pot, v, eps) == pytest.approx(raw, rel=1e-13)

    def test_modified_energy_identity(self):
        v = np.random.default_rng(5).uniform(-0.9, 0.9, (12, 12))
        r = bulk_energy(self.grid, self.pot, v)
        assert modified_energy(self.grid, v, r, 0.01) == \
            pytest.approx(total_energy(self.grid, self.pot, v, 0.01), rel=1e-14)

    def test_modified_energy_linear_in_r(self):
        v = np.random.default_rng(6).uniform(-0.9, 0.9, (12, 12))
        base = modified_energy(self.grid, v, 0.0, 0.01)
        assert modified_energy(self.grid, v, 0.5, 0.01) - base == pytest.approx(0.5)

    def test_modified_energy_constant_field(self):
        assert modified_energy(self.grid, np.full((12, 12), 0.3), 0.0, 0.01) == 0.0


def test_make_potential_dispatch():
    assert isinstance(make_potential("double-well"), DoubleWell)
    fh = make_potential("flory-huggins", 0.5, 1.0)
    assert isinstance(fh, FloryHuggins)
    with pytest.raises(ValueError):
        make_potential("cubic")
