import numpy as np
import pytest

from acflow.errors import DomainBoundError, NumericFailure
from acflow.expkernel import StabilizedOperator, dense_expm, dense_phi1m
from acflow.grid import Grid
from acflow.harness import init_random, init_sine
from acflow.potentials import (
    ConstantSigma,
    DoubleWell,
    ExpSigma,
    FloryHuggins,
    bulk_energy,
    modified_energy,
    total_energy,
)
from acflow.schemes import (
    SchemeConfig,
    SolverState,
    _frozen_at,
    initial_state,
    reference_solution,
    step,
    step_ei1,
    step_ei2,
    step_stab1,
)


def dw_config(scheme="ei1", a=1.0, eps=0.01):
    pot = DoubleWell()
    return SchemeConfig(eps=eps, kappa=pot.lipschitz, potential=pot,
                        sigma=ExpSigma(a), scheme=scheme)


class TestNonlinearTerm:
    """N = g (f(u) + kappa u), frozen at (u, s) together with the operator."""

    grid = Grid(16)

    def test_pure_state(self):
        cfg = dw_config()
        u = np.ones((16, 16))
        s = bulk_energy(self.grid, cfg.potential, u)  # = 0, so g = 1
        _, _, _, out = _frozen_at(self.grid, cfg, u, s)
        assert np.allclose(out, cfg.kappa, rtol=1e-14)

    def test_zero_state(self):
        cfg = dw_config()
        _, _, _, out = _frozen_at(self.grid, cfg, np.zeros((16, 16)), 0.0)
        assert np.all(out == 0.0)

    def test_sup_bound_from_stabilization(self):
        # ||N||_inf <= kappa * beta * g when the same g freezes the operator
        cfg = dw_config()
        rng = np.random.default_rng(0)
        for _ in range(20):
            u = rng.uniform(-1.0, 1.0, (16, 16))
            s = rng.uniform(-1.0, 1.0)
            g, _, op, out = _frozen_at(self.grid, cfg, u, s)
            assert g == cfg.sigma.ratio(s, bulk_energy(self.grid, cfg.potential, u))
            assert op.c == cfg.kappa * g
            assert np.max(np.abs(out)) <= cfg.kappa * cfg.potential.beta * g + 1e-12


@pytest.mark.parametrize("stepper", [step_ei1, step_ei2, step_stab1])
@pytest.mark.parametrize("tau", [0.01, 1.0])
class TestFixedPoints:
    def test_pure_state_invariant(self, stepper, tau):
        grid = Grid(16)
        cfg = dw_config()
        state = initial_state(grid, cfg, np.ones((16, 16)))
        out = stepper(grid, cfg, state, tau)
        assert np.max(np.abs(out.u - 1.0)) <= 1e-14
        assert abs(out.s) <= 1e-14

    def test_zero_state_invariant(self, stepper, tau):
        grid = Grid(16)
        cfg = dw_config()
        state = initial_state(grid, cfg, np.zeros((16, 16)))
        out = stepper(grid, cfg, state, tau)
        assert np.max(np.abs(out.u)) == 0.0
        assert out.s == state.s


class TestDenseOracleAgreement:
    def dense_ei1(self, grid, cfg, state, tau):
        u, s = state.u, state.s
        g_n = cfg.sigma.ratio(s, bulk_energy(grid, cfg.potential, u))
        fu = cfg.potential.f(u)
        op = StabilizedOperator(grid, cfg.kappa * g_n, cfg.eps**2)
        L = op.dense_matrix()
        N = (g_n * (fu + cfg.kappa * u)).ravel()
        u1 = (dense_expm(-tau * L) @ u.ravel()
              + tau * dense_phi1m(-tau * L) @ N).reshape(u.shape)
        s1 = s - g_n * grid.inner(fu, u1 - u)
        return u1, s1

    def test_ei1_matches_dense(self):
        grid = Grid(8)
        cfg = dw_config()
        rng = np.random.default_rng(1)
        for _ in range(10):
            u = rng.uniform(-1.0, 1.0, (8, 8))
            state = initial_state(grid, cfg, u)
            tau = rng.uniform(1e-3, 1.0)
            got = step_ei1(grid, cfg, state, tau)
            want_u, want_s = self.dense_ei1(grid, cfg, state, tau)
            assert grid.norm2(got.u - want_u) <= 1e-9 * max(1.0, grid.norm2(want_u))
            assert got.s == pytest.approx(want_s, rel=1e-9, abs=1e-12)

    def test_stab1_matches_dense_solve(self):
        grid = Grid(8)
        cfg = dw_config(scheme="stab1")
        rng = np.random.default_rng(2)
        for _ in range(10):
            u = rng.uniform(-1.0, 1.0, (8, 8))
            state = initial_state(grid, cfg, u)
            tau = rng.uniform(1e-3, 1.0)
            g_n = cfg.sigma.ratio(state.s, bulk_energy(grid, cfg.potential, u))
            op = StabilizedOperator(grid, cfg.kappa * g_n, cfg.eps**2)
            L = op.dense_matrix()
            N = (g_n * (cfg.potential.f(u) + cfg.kappa * u)).ravel()
            want = np.linalg.solve(np.eye(64) + tau * L,
                                   u.ravel() + tau * N).reshape(8, 8)
            got = step_stab1(grid, cfg, state, tau)
            assert grid.norm2(got.u - want) <= 1e-10 * max(1.0, grid.norm2(want))


class TestOrderOfAccuracy:
    def test_ei2_local_order_three(self):
        # One-step error of a locally third-order method shrinks ~8x per halving.
        grid = Grid(32)
        cfg = dw_config(scheme="ei2")
        u0 = init_sine(grid, 0.1)
        # march to t=0.5 to get a generic smooth state
        base = reference_solution(grid, cfg, u0, 0.5, 1.0 / 256)
        errs = []
        for tau in (0.25, 0.125):
            one = step_ei2(grid, cfg, base, tau)
            fine = base
            n = 512
            for _ in range(n):
                fine = step_ei2(grid, cfg, fine, tau / n)
            errs.append(grid.norm2(one.u - fine.u))
        ratio = errs[0] / errs[1]
        assert 6.5 <= ratio <= 9.5, f"local error ratio {ratio}"

    def test_reference_richardson_self_consistency(self):
        grid = Grid(32)
        cfg = dw_config(scheme="ei2")
        u0 = init_sine(grid, 0.1)
        finals = [reference_solution(grid, cfg, u0, 1.0, tau).u
                  for tau in (1.0 / 16, 1.0 / 32, 1.0 / 64)]
        d1 = grid.norm2(finals[0] - finals[1])
        d2 = grid.norm2(finals[1] - finals[2])
        assert 3.5 <= d1 / d2 <= 4.5

    def test_reference_trivials(self):
        grid = Grid(16)
        cfg = dw_config()
        u0 = init_sine(grid, 0.1)
        out = reference_solution(grid, cfg, u0, 0.0, 0.25)
        assert np.array_equal(out.u, u0)
        pure = reference_solution(grid, cfg, np.ones((16, 16)), 2.0, 0.25)
        assert np.max(np.abs(pure.u - 1.0)) <= 1e-13

    def test_reference_rejects_nondividing_tau(self):
        grid = Grid(16)
        with pytest.raises(ValueError):
            reference_solution(grid, dw_config(), init_sine(grid, 0.1), 1.0, 0.3)


@pytest.mark.parametrize("pot", [DoubleWell(), FloryHuggins()])
@pytest.mark.parametrize("scheme", ["ei1", "ei2"])
@pytest.mark.parametrize("tau", [0.01, 0.1, 1.0])
class TestStructurePreservation:
    def run_steps(self, grid, cfg, u0, tau, n_steps):
        state = initial_state(grid, cfg, u0)
        trail = [state]
        for _ in range(n_steps):
            state = step(grid, cfg, state, tau)
            trail.append(state)
        return trail

    def test_mbp_energy_and_aux_bound(self, pot, scheme, tau):
        grid = Grid(32)
        cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                           sigma=ExpSigma(1.0), scheme=scheme)
        u0 = init_random(grid, -0.8, 0.8, seed=7)
        trail = self.run_steps(grid, cfg, u0, tau, 30)
        beta = pot.beta
        e0 = total_energy(grid, pot, u0, cfg.eps)
        energies = [modified_energy(grid, st.u, st.s, cfg.eps) for st in trail]
        for st, em in zip(trail, energies):
            assert grid.norm_inf(st.u) <= beta + 1e-12
            assert st.s <= e0 + 1e-10
        for prev, curr in zip(energies, energies[1:]):
            assert curr <= prev + 1e-10

    def test_g_positive_and_finite(self, pot, scheme, tau):
        grid = Grid(32)
        cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                           sigma=ExpSigma(1.0), scheme=scheme)
        trail = self.run_steps(grid, cfg, init_random(grid, -0.8, 0.8, 8), tau, 20)
        for st in trail:
            assert np.isfinite(st.g) and st.g > 0


class TestDegenerateSigma:
    def test_constant_sigma_decouples_s(self):
        # With constant sigma the field update must be bitwise independent of s.
        grid = Grid(16)
        pot = DoubleWell()
        cfg = SchemeConfig(eps=0.01, kappa=2.0, potential=pot,
                           sigma=ConstantSigma(), scheme="ei1")
        u0 = init_random(grid, -0.8, 0.8, 9)
        s0 = bulk_energy(grid, pot, u0)
        a = step_ei1(grid, cfg, SolverState(u=u0, s=s0), 0.1)
        b = step_ei1(grid, cfg, SolverState(u=u0, s=s0 + 123.4), 0.1)
        assert np.array_equal(a.u, b.u)
        assert a.g == 1.0 and b.g == 1.0

    def test_initial_aux_matches_bulk_energy(self):
        grid = Grid(16)
        cfg = dw_config()
        u0 = init_random(grid, -0.5, 0.5, 10)
        state = initial_state(grid, cfg, u0)
        assert state.s == bulk_energy(grid, cfg.potential, u0)


@pytest.mark.parametrize("boundary,potential", [("periodic", DoubleWell),
                                                ("neumann", FloryHuggins)])
@pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
class TestCachedBulkEnergy:
    """Each state carries E1(u) from the step that made it; a hand-built
    state without it gets it on first use."""

    def problem(self, boundary, potential, scheme):
        grid = Grid(16, 1.0, boundary)
        pot = potential()
        cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                           sigma=ExpSigma(10.0), scheme=scheme)
        return grid, cfg, init_random(grid, -0.8, 0.8, 11)

    def test_hand_built_state_steps_like_initial_state(self, boundary, potential,
                                                        scheme):
        grid, cfg, u0 = self.problem(boundary, potential, scheme)
        a = initial_state(grid, cfg, u0)
        b = SolverState(u=u0.copy(), s=a.s)
        assert b.e1 is None
        for _ in range(3):
            a = step(grid, cfg, a, 0.05)
            b = step(grid, cfg, b, 0.05)
            assert np.array_equal(a.u, b.u)
            assert (a.s, a.g, a.e1) == (b.s, b.g, b.e1)

    def test_each_state_holds_its_bulk_energy(self, boundary, potential, scheme):
        grid, cfg, u0 = self.problem(boundary, potential, scheme)
        state = initial_state(grid, cfg, u0)
        for _ in range(3):
            assert state.e1 == bulk_energy(grid, cfg.potential, state.u)
            state = step(grid, cfg, state, 0.05)
        assert state.e1 == bulk_energy(grid, cfg.potential, state.u)


class TestFailureModes:
    def test_nonfinite_state_raises_with_step(self):
        grid = Grid(8)
        cfg = dw_config()
        bad = SolverState(u=np.full((8, 8), 0.1), s=np.inf, t=0.0, step=4)
        with pytest.raises(NumericFailure) as exc:
            step_ei1(grid, cfg, bad, 0.1)
        assert exc.value.step == 5

    def test_nonfinite_predictor_raises_with_step(self):
        # A NaN s passes the constant shaping ratio; the ei2 predictor's
        # check names the failing stage and step.
        grid = Grid(8)
        pot = DoubleWell()
        cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                           sigma=ConstantSigma(), scheme="ei2")
        bad = SolverState(u=np.full((8, 8), 0.1), s=np.nan, step=4)
        with pytest.raises(NumericFailure, match="after ei1 step") as exc:
            step_ei2(grid, cfg, bad, 0.1)
        assert exc.value.step == 5

    def test_domain_error_raises_with_step(self):
        # |u| = 1 is outside the Flory-Huggins domain; the step index must
        # still be attached, with the domain error kept as the cause.
        grid = Grid(8, 1.0, "neumann")
        pot = FloryHuggins()
        cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                           sigma=ExpSigma(1.0), scheme="ei2")
        u = np.zeros((8, 8))
        u[0, 0] = 1.0
        with pytest.raises(NumericFailure) as exc:
            step_ei2(grid, cfg, SolverState(u=u, s=0.0, step=4), 0.1)
        assert exc.value.step == 5
        assert isinstance(exc.value.__cause__, DomainBoundError)

    def test_rejects_nonpositive_tau(self):
        grid = Grid(8)
        cfg = dw_config()
        state = initial_state(grid, cfg, np.zeros((8, 8)))
        with pytest.raises(ValueError):
            step_ei1(grid, cfg, state, 0.0)
