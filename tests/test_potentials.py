import functools
import math

import numpy as np
import pytest
from scipy.special import xlogy

from acflow.errors import NumericRangeError
from acflow.grid import Grid
from acflow.potentials import (
    ArctanSigma,
    ConstantSigma,
    DoubleWell,
    ExpSigma,
    FloryHuggins,
    TanhSigma,
    _brentq,
    bulk_energy,
    make_potential,
    make_sigma,
    total_energy,
)
from acflow.verify import density, gradient, stabilization_bound


class TestDoubleWell:
    pot = DoubleWell()

    def test_reaction_values(self):
        assert self.pot.f(0.0) == 0.0
        assert self.pot.f(1.0) == 0.0
        assert self.pot.f(0.5) == pytest.approx(0.375)

    def test_potential_values(self):
        assert density(self.pot, 1.0) == 0.0
        assert density(self.pot, -1.0) == 0.0
        assert density(self.pot, 0.0) == 0.25

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
        assert density(self.pot, 0.0) == 0.0
        assert np.all(density(self.pot, np.zeros((4, 4))) == 0.0)

    def test_F_is_even_bitwise(self):
        u = np.random.default_rng(0).uniform(-self.pot.beta, self.pot.beta, 10_000)
        assert np.array_equal(density(self.pot, -u), density(self.pot, u))

    def test_F_matches_xlogy_form(self):
        # The log1p form against the textbook (1+u)log(1+u) + (1-u)log(1-u).
        def reference(u):
            ent = xlogy(1.0 + u, 1.0 + u) + xlogy(1.0 - u, 1.0 - u)
            return 0.5 * self.pot.theta * ent - 0.5 * self.pot.theta_c * u**2

        u = np.concatenate([np.linspace(-self.pot.beta, self.pot.beta, 100_001),
                            [1.0 - 1e-12, -(1.0 - 1e-12)]])
        assert np.max(np.abs(density(self.pot, u) - reference(u))) <= 1e-15

    def test_near_critical_parameters_accepted(self):
        # theta_c / theta = 1.01: f(-beta) rounds to a tiny negative value,
        # which must not be mistaken for a failed sign condition.
        pot = FloryHuggins(1.0, 1.01)
        assert 0.0 < pot.beta < 1.0
        assert pot.f(pot.beta) == pytest.approx(0.0, abs=1e-12)
        assert pot.lipschitz == pytest.approx(abs(1.01 - 1.0 / (1.0 - pot.beta**2)),
                                              rel=1e-15)

    @pytest.mark.parametrize("theta_c", [1.00001, 1.0 + 1e-7])
    def test_barely_supercritical_parameters_accepted(self, theta_c):
        # beta^2/3 + beta^4/5 + ... = theta_c/theta - 1, so beta ~ sqrt(3 d).
        pot = FloryHuggins(1.0, theta_c)
        assert pot.f(pot.beta) <= 0.0 <= pot.f(-pot.beta)
        assert pot.beta == pytest.approx(math.sqrt(3.0 * (theta_c - 1.0)), rel=1e-4)

    @pytest.mark.parametrize("theta, theta_c", [
        (0.3, float(np.nextafter(0.3, 1.0))),  # beta was 27 % above the root
        (0.8, float(np.nextafter(0.8, 1.0))),  # beta was 1.5e-12, the root 2.04e-8
        (1.0, 1.0 + 1e-9),  # beta was 1.27e-12 below the root
    ])
    def test_near_critical_parameters_rejected(self, theta, theta_c):
        # Below a relative gap of 1e-7, beta comes out of f's rounding and can
        # lie more than MBP_TOL below the true root.
        with pytest.raises(ValueError, match=r"\(theta_c - theta\)/theta = .* < 1e-07: "
                                             "beta would be rounding noise"):
            FloryHuggins(theta, theta_c)

    def test_reaction_accurate_near_zero(self):
        # f(u) = (theta_c - theta) u - theta u^3/3 - ..., here to u^3.
        u = np.array([1e-12, 1e-9, 1e-6])
        series = (self.pot.theta_c - self.pot.theta) * u - self.pot.theta * u**3 / 3
        assert np.all(np.abs(self.pot.f(u) / series - 1.0) <= 1e-15)

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(ValueError):
            FloryHuggins(theta=0.8, theta_c=0.8)
        with pytest.raises(ValueError):
            FloryHuggins(theta=-1.0, theta_c=1.0)
        with pytest.raises(ValueError, match=r"theta_c/theta = 15\.0 >= .*"
                           r"the root of f lies within 1e-12 of 1$"):
            FloryHuggins(theta=0.8, theta_c=12.0)
        with pytest.raises(ValueError, match="beta would be rounding noise"):
            FloryHuggins(7.299257909835141, 7.299257909835142)
        # A ratio of 2 whose f underflows at the bracket's lower end, 1e-12.
        with pytest.raises(ValueError, match=r"f\(1e-12\) <= 0: theta=1e-320 is too small"):
            FloryHuggins(1e-320, 2e-320)

    def test_brent_solve_matches_scipy_brentq_bitwise(self):
        # scipy.optimize is the reference here only; acflow does not load it.
        from scipy.optimize import brentq
        # theta uniform in [0.01, 10] with theta_c/theta uniform in
        # [1 + 1e-7, 14], and theta log-uniform in [1e-300, 10] with
        # theta_c/theta = 1 + 10^U(-7, 1.1), besides three defaults.
        rng = np.random.default_rng(23)
        wide = rng.uniform(0.01, 10.0, 1000)
        tiny = 10.0 ** rng.uniform(-300.0, 1.0, 1000)
        pairs = [(0.8, 1.6), (0.5, 1.0), (0.3, 2.5),
                 *zip(wide, wide * rng.uniform(1.0 + 1e-7, 14.0, 1000)),
                 *zip(tiny, tiny * (1.0 + 10.0 ** rng.uniform(-7.0, 1.1, 1000)))]
        lo, hi = 1e-12, 1.0 - 1e-12
        for theta, theta_c in pairs:
            pot = FloryHuggins(float(theta), float(theta_c))
            root = brentq(pot.f, lo, hi, xtol=1e-12)
            assert _brentq(pot.f, lo, hi, xtol=1e-12) == root
            # beta is that root, moved up by 2e-12 where f(root) > 0.
            assert pot.beta == (min(root + 2e-12, hi) if pot.f(root) > 0 else root)

    def test_lipschitz_bound_is_the_slope_at_beta(self):
        # On [0, beta] f' = theta_c - theta/(1 - u^2) falls and is concave
        # and integrates to f(beta) - f(0) = 0, so f'(beta) <= -f'(0): the
        # max with |f'(0)| of the bound's first form is |f'(beta)|, bit for
        # bit.  The margin is 2x as theta_c/theta -> 1, where
        # f'(0) ~ theta beta^2/3 and f'(beta) ~ -2 theta beta^2/3, and wider
        # elsewhere.
        rng = np.random.default_rng(26)
        theta = np.concatenate([rng.uniform(0.01, 10.0, 1000),
                                10.0 ** rng.uniform(-300.0, 1.0, 1000)])
        ratio = 1.0 + 10.0 ** rng.uniform(-7.0, 1.1, 2000)
        for t, r in zip(theta, np.minimum(ratio, 14.0)):
            pot = FloryHuggins(float(t), float(t * r))
            slope0, slope_beta = abs(pot._fprime(0.0)), abs(pot._fprime(pot.beta))
            assert slope_beta >= 2.0 * slope0 * (1.0 - 1e-6)
            assert pot.lipschitz == max(slope0, slope_beta) == slope_beta

    def test_domain_error_at_unit(self):
        with pytest.raises(NumericRangeError):
            self.pot.f(np.array([0.0, 1.0]))
        with pytest.raises(NumericRangeError):
            density(self.pot, 1.5)

    @pytest.mark.parametrize("name", ["f", "F"])
    @pytest.mark.parametrize("u", [1.0, -1.0, 1.5, -1.5, [np.nan, 1.5],
                                   [-1.5, np.nan], np.full((3, 3), -1.0)],
                             ids=str)
    def test_domain_error_set(self, name, u):
        with pytest.raises(NumericRangeError):
            _evaluate(self.pot, name, np.asarray(u))

    @pytest.mark.parametrize("name", ["f", "F"])
    def test_domain_error_in_last_strip(self, name):
        # The whole field is checked before the first strip is computed; the
        # message gives its max |u|, and no strip is computed out of the
        # domain, which would warn.
        u = np.zeros((300, 300))
        u[-1, -1] = -1.5
        with pytest.raises(NumericRangeError, match=r"\(-1, 1\): max \|u\| = 1\.5$"):
            _evaluate(self.pot, name, u)

    @pytest.mark.parametrize("name", ["f", "F"])
    @pytest.mark.parametrize("u", [np.nan, [np.nan, 0.5], np.nextafter(1.0, 0.0),
                                   np.nextafter(-1.0, 0.0)], ids=str)
    def test_no_domain_error_inside(self, name, u):
        # NaN is not outside (-1, 1): it passes through, as |NaN| >= 1 is false.
        _evaluate(self.pot, name, np.asarray(u))


def _evaluate(pot, name, u):
    """The reaction f or, from its oracle in ``acflow.verify``, the density F."""
    return pot.f(u) if name == "f" else density(pot, u)


def _allocating_forms(pot):
    """f and F in the allocating forms of their first implementation: the
    reference for the in-place bodies, which keep each element's arithmetic."""
    if isinstance(pot, DoubleWell):
        def f(u):
            u = np.asarray(u)
            return u * (1.0 - u * u)

        def F(u):
            w = 1.0 - np.asarray(u) ** 2
            return 0.25 * w * w
    else:
        def f(u):
            out = np.arctanh(np.asarray(u, dtype=float))
            out *= -pot.theta
            out += pot.theta_c * u
            return out

        def F(u):
            u = np.asarray(u, dtype=float)
            ent = np.log1p(u)
            ent *= 1.0 + u
            other = np.log1p(-u)
            other *= 1.0 - u
            ent += other
            ent *= 0.5 * pot.theta
            ent -= 0.5 * pot.theta_c * u**2
            return ent
    return {"f": f, "F": F}


@pytest.mark.parametrize("name", ["f", "F"])
@pytest.mark.parametrize("pot", [DoubleWell(), FloryHuggins()], ids=["dw", "fh"])
def test_values_match_allocating_forms_bitwise(pot, name):
    got, want = functools.partial(_evaluate, pot, name), _allocating_forms(pot)[name]
    rng = np.random.default_rng(8)
    field = rng.uniform(-pot.beta, pot.beta, (32, 32))
    # 300 and 512 run in row strips, the last of 300's ragged, and so does a
    # transposed view, whose strips are columns of the array beneath.
    strips = [rng.uniform(-pot.beta, pot.beta, (m, m)) for m in (300, 512)]
    points = [float(x) for x in field[0, :8]] + [0.0, -0.0, pot.beta, -pot.beta]
    inputs = ([field, field[:5, :7].T, *strips, strips[0].T]
              + points + [np.asarray(x) for x in points])
    for u in inputs:
        a, b = got(u), want(u)
        assert type(a) is type(b), u
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes(), u


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
        fd = -(density(pot, u + d) - density(pot, u - d)) / (2 * d)
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

    @pytest.mark.parametrize("r", [1.0, -1.0])
    def test_exp_ratio_out_of_range_raises(self, r):
        # exp(+-1000) overflows or underflows; no numpy warning comes first.
        with pytest.raises(NumericRangeError, match=rf"exp.*r={r!r}, e1=0"):
            ExpSigma(1000.0).ratio(r, 0)

    @pytest.mark.parametrize("sigma, closed_form", [
        (TanhSigma(), lambda r, e1: (math.exp(2 * (r - e1)) * (1 + math.exp(2 * e1))
                                     / (1 + math.exp(2 * r)))),
        (ArctanSigma(), lambda r, e1: math.atan(-1 / r) / math.atan(-1 / e1)),
    ], ids=["tanh", "arctan"])
    def test_ratio_at_large_negative_arguments(self, sigma, closed_form):
        # sigma(x) -> 0 as x -> -inf; its ratio is still a well-scaled number,
        # or, when that number exceeds the float range, a NumericRangeError.
        for r, e1 in [(-15, -15.01), (-18, -18.01), (-500, -500.01),
                      (-1e8, -1.0001e8), (-1e17, -1.01e17)]:
            try:
                expected = closed_form(r, e1)
            except OverflowError:
                with pytest.raises(NumericRangeError):
                    sigma.ratio(r, e1)
                continue
            assert sigma.ratio(r, e1) == pytest.approx(expected, rel=1e-12), (r, e1)

    def test_tanh_log_ratio_at_moderate_arguments(self):
        # log((1 + tanh r)/(1 + tanh e1)) directly, which cancels little for
        # |x| <= 3 (the largest difference measured is 1.3e-14).  Both
        # log1p(exp(-2|x|)) terms of the stable form matter here: without
        # them the ratio is still positive and monotone, but off by up to
        # log 2 at these arguments.
        sigma = TanhSigma()
        for r, e1 in np.random.default_rng(13).uniform(-3.0, 3.0, (500, 2)):
            direct = math.log((1.0 + math.tanh(r)) / (1.0 + math.tanh(e1)))
            assert sigma.log_ratio(r, e1) == pytest.approx(direct, rel=0.0, abs=1e-13)


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
        direct = self.grid.h**2 * float(np.sum(density(self.pot, v)))
        assert bulk_energy(self.grid, self.pot, v) == pytest.approx(direct, rel=1e-14)

    def test_total_energy_trivials(self):
        assert total_energy(self.grid, self.pot, np.ones((12, 12)), 0.01) == \
            pytest.approx(0.0, abs=1e-15)
        assert total_energy(self.grid, self.pot, np.zeros((12, 12)), 0.01) == \
            pytest.approx(0.25, rel=1e-14)

    def test_total_energy_matches_raw_sums(self):
        eps = 0.05
        v = np.random.default_rng(4).uniform(-0.9, 0.9, (12, 12))
        gx, gy = gradient(self.grid, v)
        raw = (0.5 * eps**2 * self.grid.h**2 * float(np.sum(gx * gx + gy * gy))
               + self.grid.h**2 * float(np.sum(density(self.pot, v))))
        assert total_energy(self.grid, self.pot, v, eps) == pytest.approx(raw, rel=1e-13)


def test_make_potential_dispatch():
    assert isinstance(make_potential("double-well"), DoubleWell)
    fh = make_potential("flory-huggins", 0.5, 1.0)
    assert isinstance(fh, FloryHuggins)
    with pytest.raises(ValueError):
        make_potential("cubic")
    with pytest.raises(ValueError, match="unknown sigma 'bogus'"):
        make_sigma("bogus")


@pytest.mark.parametrize("m", [12, 300, 512])  # 300 rows leave a ragged last strip
@pytest.mark.parametrize("field", ["uniform", "near-beta", "small"])
def test_flory_huggins_energy_matches_the_density(m, field):
    """E1 from f by the identity in ``bulk_energy`` against h^2 sum F(v), the
    pointwise density, to 1e-14 relative (the largest measured is 8.9e-16).

    Not a bound for every potential: near the critical ratio both forms
    cancel.  At theta_c/theta = 1 + 4e-7 (beta ~ 1.1e-3), M=300 and v
    uniform in [-beta, beta], they differ by 2.3e-8 relative, 1.3e-21
    absolute, on an E1 of -5.6e-14."""
    pot, grid = FloryHuggins(), Grid(m, 1.0, "neumann")
    rng = np.random.default_rng(m)
    beta = pot.beta
    v = {"uniform": lambda: rng.uniform(-beta, beta, (m, m)),
         "near-beta": lambda: (rng.choice([-beta, beta], (m, m))
                               * (1.0 - 1e-6 * rng.random((m, m)))),
         "small": lambda: rng.uniform(-0.05, 0.05, (m, m))}[field]()
    direct = grid.h**2 * float(np.sum(density(pot, v)))
    energy = bulk_energy(grid, pot, v)
    assert energy == pytest.approx(direct, rel=1e-14, abs=0.0)
    assert bulk_energy(grid, pot, v, pot.f(v)) == energy


@pytest.mark.parametrize("length", [1.0, 100.0])
@pytest.mark.parametrize("m", [12, 300, 512])
@pytest.mark.parametrize("field", ["uniform", "near-beta", "small"])
def test_double_well_energy_matches_the_density(m, field, length):
    """E1 = (L^2 - (v, v)_h - (v, f(v))_h)/4, the identity in ``bulk_energy``,
    against h^2 sum F(v), the pointwise density.

    Away from the pure states the two agree to 1e-14 relative (the largest
    measured over 20 seeds is 8.8e-16).  Near v = +-1 they do not, and need
    not: there 1 - v^2 - v f(v) = (1 - v^2)^2 cancels terms of size 1 to
    leave ~1e-12, so E1 keeps an absolute error of a few ulp of L^2/4, the
    size of the terms it is summed from (the largest measured over 20 seeds
    is 8.6e-16 L^2/4, a relative error of 6.4e-4).  E1 enters only the shaping ratio and
    the energy column, and MBP and energy decay hold for any ratio > 0."""
    pot, grid = DoubleWell(), Grid(m, length)
    rng = np.random.default_rng(m)
    v = {"uniform": lambda: rng.uniform(-1.0, 1.0, (m, m)),
         "near-beta": lambda: (rng.choice([-1.0, 1.0], (m, m))
                               * (1.0 - 1e-6 * rng.random((m, m)))),
         "small": lambda: rng.uniform(-0.05, 0.05, (m, m))}[field]()
    direct = grid.h**2 * float(np.sum(density(pot, v)))
    energy = bulk_energy(grid, pot, v)
    if field == "near-beta":
        assert abs(energy - direct) <= 2e-15 * length**2 / 4
    else:
        assert energy == pytest.approx(direct, rel=1e-14, abs=0.0)
    assert bulk_energy(grid, pot, v, pot.f(v)) == energy
