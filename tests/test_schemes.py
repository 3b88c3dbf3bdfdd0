import ast
import collections
import pathlib
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest

import acflow
from acflow.errors import NumericFailure, NumericRangeError
from acflow.expkernel import StabilizedOperator
from acflow.grid import Grid
from acflow.harness import _make_row, init_random, init_sine
from acflow.potentials import (
    ConstantSigma,
    DoubleWell,
    ExpSigma,
    FloryHuggins,
    bulk_energy,
    interface_energy,
    total_energy,
)
from acflow.schemes import (
    SchemeConfig,
    SolverState,
    _frozen_at,
    initial_state,
    reference_solution,
    step,
)
from acflow.verify import dense_expm, dense_laplacian, dense_phi1m


def test_every_public_name_resolves():
    assert [name for name in acflow.__all__ if not hasattr(acflow, name)] == []


def test_every_public_name_is_used_outside_the_tests():
    # A public name is used when the library or the benchmark loads it as a
    # name, or as an attribute of an acflow module (``harness.run``).  Other
    # attributes, strings and keywords do not count: the row field
    # ``modified_energy`` is not a use of a function of that name.  A public
    # method or attribute of a public class (its fields, its class
    # attributes and what its methods assign to ``self``) is used when they
    # load it as an attribute of an object other than ``self``, or of
    # ``self`` within that class or a class it derives from.
    root = pathlib.Path(__file__).resolve().parents[1]
    src = sorted((root / "src" / "acflow").glob("*.py"))
    modules = {"acflow"} | {path.stem for path in src}
    used, loaded = set(), set()
    on_self, set_on_self = collections.defaultdict(set), collections.defaultdict(set)
    for path in [*src, *(root / "benchmarks").glob("*.py")]:
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(), str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                owner = node.value.id if isinstance(node.value, ast.Name) else None
                if owner in modules:  # ``grid`` is a module and a Grid
                    used.add(node.attr)
                if owner != "self":
                    loaded.add(node.attr)
        for cls in (node for node in ast.walk(tree) if isinstance(node, ast.ClassDef)):
            for node in ast.walk(cls):
                if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                        and node.value.id == "self"):
                    store = isinstance(node.ctx, ast.Store)
                    (set_on_self if store else on_self)[cls.name].add(node.attr)
    assert [name for name in acflow.__all__ if name not in used] == []
    unused = []
    for name in acflow.__all__:
        cls = getattr(acflow, name)
        if not isinstance(cls, type):
            continue
        ours = [k for k in cls.__mro__ if k.__module__.startswith("acflow")]
        members = set().union(*(set(vars(k)) | set(getattr(k, "__annotations__", {}))
                                | set_on_self[k.__name__] for k in ours))
        unused += [f"{name}.{attr}" for attr in sorted(members)
                   if not attr.startswith("_") and attr not in loaded
                   and not any(attr in on_self[k.__name__] for k in ours)]
    assert unused == []



def test_no_module_imports_a_private_name_of_another():
    # A ``_``-prefixed name is private to its module: no module of the
    # package imports one from another.  Imports only: a private method
    # called on an object is not counted.
    src = pathlib.Path(__file__).resolve().parents[1] / "src" / "acflow"
    private = []
    for path in sorted(src.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "acflow"):
                private += [f"{path.name}: {node.module}.{alias.name}"
                            for alias in node.names if alias.name.startswith("_")]
    assert private == []


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
        assert np.allclose(self.grid.fast_inverse(out), cfg.kappa, rtol=1e-14)

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
            n = self.grid.fast_inverse(out)
            assert np.max(np.abs(n)) <= cfg.kappa * cfg.potential.beta * g + 1e-12


@pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"],
                         ids=lambda scheme: f"step_{scheme}")
@pytest.mark.parametrize("tau", [0.01, 1.0])
class TestFixedPoints:
    def test_pure_state_invariant(self, scheme, tau):
        grid = Grid(16)
        cfg = dw_config(scheme)
        state = initial_state(grid, cfg, np.ones((16, 16)))
        out = step(grid, cfg, state, tau)
        assert np.max(np.abs(out.u - 1.0)) <= 1e-14
        assert abs(out.s) <= 1e-14

    def test_zero_state_invariant(self, scheme, tau):
        grid = Grid(16)
        cfg = dw_config(scheme)
        state = initial_state(grid, cfg, np.zeros((16, 16)))
        out = step(grid, cfg, state, tau)
        assert np.max(np.abs(out.u)) == 0.0
        assert out.s == state.s


class TestDenseOracleAgreement:
    def dense_ei1(self, grid, cfg, state, tau):
        u, s = state.u, state.s
        g_n = cfg.sigma.ratio(s, bulk_energy(grid, cfg.potential, u))
        fu = cfg.potential.f(u)
        L = cfg.kappa * g_n * np.eye(64) - cfg.eps**2 * dense_laplacian(grid)
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
            got = step(grid, cfg, state, tau)
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
            L = (cfg.kappa * g_n * np.eye(64)
                 - cfg.eps**2 * dense_laplacian(grid))
            N = (g_n * (cfg.potential.f(u) + cfg.kappa * u)).ravel()
            want = np.linalg.solve(np.eye(64) + tau * L,
                                   u.ravel() + tau * N).reshape(8, 8)
            got = step(grid, cfg, state, tau)
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
            one = step(grid, cfg, base, tau)
            fine = base
            n = 512
            for _ in range(n):
                fine = step(grid, cfg, fine, tau / n)
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

    def test_reference_is_ei2_whatever_the_scheme(self):
        grid = Grid(16)
        u0 = init_sine(grid, 0.1)
        refs = [reference_solution(grid, dw_config(scheme), u0, 0.5, 1.0 / 64)
                for scheme in ("ei2", "ei1", "stab1")]
        for ref in refs[1:]:
            assert ref.u.tobytes() == refs[0].u.tobytes()
            assert (ref.s, ref.g, ref.e1) == (refs[0].s, refs[0].g, refs[0].e1)

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
        energies = [interface_energy(grid, grid.fast_forward(st.u), cfg.eps) + st.s
                    for st in trail]
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
        start = initial_state(grid, cfg, init_random(grid, -0.8, 0.8, 9))
        a = step(grid, cfg, start, 0.1)
        b = step(grid, cfg, replace(start, s=start.s + 123.4), 0.1)
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
    """Each state carries E1(u) from ``initial_state`` or from the step that
    made it."""

    def problem(self, boundary, potential, scheme):
        grid = Grid(16, 1.0, boundary)
        pot = potential()
        cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                           sigma=ExpSigma(10.0), scheme=scheme)
        return grid, cfg, init_random(grid, -0.8, 0.8, 11)

    def test_each_state_holds_its_bulk_energy(self, boundary, potential, scheme):
        grid, cfg, u0 = self.problem(boundary, potential, scheme)
        state = initial_state(grid, cfg, u0)
        for _ in range(3):
            assert state.e1 == bulk_energy(grid, cfg.potential, state.u)
            assert state.fu.tobytes() == cfg.potential.f(state.u).tobytes()
            state = step(grid, cfg, state, 0.05)
        assert state.e1 == bulk_energy(grid, cfg.potential, state.u)
        assert state.fu.tobytes() == cfg.potential.f(state.u).tobytes()


class TestCarriedSpectrum:
    """Every step hands the spectrum it inverted to the next step in place
    of grid.fast_forward(u)."""

    @staticmethod
    def problem(m, boundary, potential, scheme):
        grid = Grid(m, 1.0, boundary)
        pot = potential()
        cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                           sigma=ExpSigma(10.0), scheme=scheme)
        return grid, cfg, initial_state(grid, cfg, init_random(grid, -0.8, 0.8, 12))

    @pytest.mark.parametrize("m,boundary,potential", [
        (32, "periodic", DoubleWell), (33, "periodic", DoubleWell),
        (32, "neumann", FloryHuggins)])
    @pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
    def test_no_drift_from_the_transform_of_u(self, m, boundary, potential,
                                              scheme):
        grid, cfg, state = self.problem(m, boundary, potential, scheme)
        for n in range(1, 2001):
            state = step(grid, cfg, state, 0.05)
            if n % 250 == 0:
                exact = grid.fast_forward(state.u)
                drift = np.max(np.abs(state.u_hat - exact))
                assert drift <= 1e-13 * np.max(np.abs(exact)), (n, drift)

    @pytest.mark.parametrize("m,boundary,potential", [
        (32, "periodic", DoubleWell), (33, "periodic", DoubleWell),
        (32, "neumann", FloryHuggins)])
    @pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
    def test_row_energies_match_a_fresh_transform(self, m, boundary, potential,
                                                  scheme):
        # The row sums the interface energy over the carried spectrum; the
        # energy functions given u alone transform it afresh.
        grid, cfg, state = self.problem(m, boundary, potential, scheme)
        for n in range(1, 2001):
            state = step(grid, cfg, state, 0.05)
            row = _make_row(grid, cfg, state, 0.05)
            fresh = (total_energy(grid, cfg.potential, state.u, cfg.eps),
                     interface_energy(grid, grid.fast_forward(state.u), cfg.eps) + state.s)
            assert fresh == pytest.approx((row.energy, row.modified_energy),
                                          rel=1e-13, abs=0.0), n

    @pytest.mark.parametrize("boundary,potential", [("periodic", DoubleWell),
                                                    ("neumann", FloryHuggins)])
    @pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
    def test_stepping_leaves_the_input_alone(self, boundary, potential, scheme):
        grid, cfg, state = self.problem(16, boundary, potential, scheme)
        state = step(grid, cfg, state, 0.05)
        assert state.u_hat is not None
        u_bytes, hat_bytes = state.u.tobytes(), state.u_hat.tobytes()
        a = step(grid, cfg, state, 0.05)
        b = step(grid, cfg, state, 0.05)
        assert a.u.tobytes() == b.u.tobytes()
        assert (a.s, a.g, a.e1) == (b.s, b.g, b.e1)
        assert state.u.tobytes() == u_bytes
        assert a.u_hat.tobytes() == b.u_hat.tobytes()
        assert a.u_hat is not b.u_hat
        assert state.u_hat.tobytes() == hat_bytes

    @pytest.mark.parametrize("m,boundary,potential", [
        (32, "periodic", DoubleWell), (33, "periodic", DoubleWell),
        (32, "neumann", FloryHuggins)])
    def test_initial_state_is_complete(self, m, boundary, potential):
        grid, cfg, state = self.problem(m, boundary, potential, "ei2")
        assert state.u_hat.tobytes() == grid.fast_forward(state.u).tobytes()
        assert state.e1 == bulk_energy(grid, cfg.potential, state.u)
        assert state.fu.tobytes() == cfg.potential.f(state.u).tobytes()

    def test_state_needs_its_energy_and_spectrum(self):
        with pytest.raises(TypeError):
            SolverState(u=np.zeros((8, 8)), s=0.0)


class TestInitialState:
    """``initial_state`` checks u0's shape, then its finiteness, then
    |u0| <= beta + MBP_TOL, each with its own ``ValueError``."""

    def test_rejects_bad_shape(self):
        # Checked first, whatever the entries hold.
        with pytest.raises(ValueError,
                           match=re.escape("grid function shape (3, 4) != (4, 4)")):
            initial_state(Grid(4), dw_config(), np.full((3, 4), np.nan))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf],
                             ids=["nan", "+inf", "-inf"])
    def test_rejects_non_finite_entries(self, bad):
        # Checked before beta, which every other entry exceeds.
        v = np.full((4, 4), 2.0)
        v[1, 2] = bad
        with pytest.raises(ValueError,
                           match="^grid function contains non-finite entries$"):
            initial_state(Grid(4), dw_config(), v)


def assert_names_step(exc, n, state, tau):
    """A step failure carries the step index, its start time and tau, and its
    message leads with them, also after a pickle round trip."""
    assert (exc.step, exc.t, exc.tau) == (n, state.t, tau)
    assert str(exc).startswith(f"step {n} from t=")
    assert str(pickle.loads(pickle.dumps(exc))) == str(exc)


class TestFailureModes:
    def test_nonfinite_state_raises_with_step(self):
        grid = Grid(8)
        cfg = dw_config()
        bad = replace(initial_state(grid, cfg, np.full((8, 8), 0.1)), s=np.inf,
                      step=4, t=0.4)
        with pytest.raises(NumericFailure) as exc:
            step(grid, cfg, bad, 0.1)
        assert_names_step(exc.value, 5, bad, 0.1)

    def test_nonfinite_predictor_raises_with_step(self):
        # A NaN s passes the constant shaping ratio; the ei2 predictor's
        # check names the failing stage and step.
        grid = Grid(8)
        pot = DoubleWell()
        cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                           sigma=ConstantSigma(), scheme="ei2")
        bad = replace(initial_state(grid, cfg, np.full((8, 8), 0.1)), s=np.nan,
                      step=4, t=0.4)
        with pytest.raises(NumericFailure, match="after ei1 step") as exc:
            step(grid, cfg, bad, 0.1)
        assert_names_step(exc.value, 5, bad, 0.1)

    @pytest.mark.parametrize("bad", [np.inf, np.nan], ids=["inf", "nan"])
    @pytest.mark.parametrize("scheme, call, label", [
        ("ei1", 1, "ei1 step"), ("stab1", 1, "stab1 step"),
        ("ei2", 1, "ei1 step"), ("ei2", 2, "ei2 step")],
        ids=["ei1", "stab1", "ei2-predictor", "ei2-corrector"])
    def test_nonfinite_field_raises_with_step(self, monkeypatch, scheme, call,
                                              label, bad):
        # The advance plants a non-finite entry in the field of its `call`-th
        # use.  From u = 0 under the double well, f(u) = 0 at every node, so
        # the entry reaches s only as 0 * inf or 0 * NaN = NaN.
        advance = StabilizedOperator.advance_spectral
        calls = [0]

        def planted(self, *args, **kwargs):
            u, u_hat = advance(self, *args, **kwargs)
            calls[0] += 1
            if calls[0] == call:
                u[3, 5] = bad
            return u, u_hat

        monkeypatch.setattr(StabilizedOperator, "advance_spectral", planted)
        grid = Grid(8)
        cfg = dw_config(scheme)
        state = initial_state(grid, cfg, np.zeros((8, 8)))
        # An elementwise product of the planted entry with 0 is flagged by
        # numpy as invalid; that NaN is what the step must catch.
        with np.errstate(invalid="ignore"), \
                pytest.raises(NumericFailure, match=f"after {label}") as exc:
            step(grid, cfg, state, 0.1)
        assert calls[0] == call
        assert_names_step(exc.value, 1, state, 0.1)
        assert isinstance(exc.value.__cause__, NumericRangeError)

    def test_domain_error_raises_with_step(self):
        # |u| = 1.5 is outside the Flory-Huggins domain; the step index must
        # still be attached, with the domain error kept as the cause.
        # initial_state rejects such a u itself, so the state is built whole,
        # with zeros for the f(u) that has no value there.  The step meets
        # the domain where it evaluates f: at the ei2 midpoint.
        grid = Grid(8, 1.0, "neumann")
        pot = FloryHuggins()
        cfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                           sigma=ExpSigma(1.0), scheme="ei2")
        u = np.zeros((8, 8))
        u[0, 0] = 1.5
        bad = SolverState(u=u, s=0.0, e1=0.0, u_hat=grid.fast_forward(u),
                          fu=np.zeros((8, 8)), t=0.4, step=4)
        with pytest.raises(NumericFailure, match=r"outside \(-1, 1\)") as exc:
            step(grid, cfg, bad, 0.1)
        assert_names_step(exc.value, 5, bad, 0.1)
        assert isinstance(exc.value.__cause__, NumericRangeError)

    def test_overflowing_stabilization_raises_with_step(self):
        # g = exp(1000 * 0.7095) is finite, but kappa g = 2 g overflows.
        grid = Grid(16)
        cfg = dw_config(a=1000.0)
        u = init_random(grid, -0.5, 0.5, 1)
        start = initial_state(grid, cfg, u)
        bad = replace(start, s=start.s + 0.7095, step=2, t=0.2)
        with pytest.raises(NumericFailure, match="kappa") as exc:
            step(grid, cfg, bad, 0.1)
        assert_names_step(exc.value, 3, bad, 0.1)
        assert isinstance(exc.value.__cause__, NumericRangeError)

    def test_rejects_nonpositive_tau(self):
        grid = Grid(8)
        cfg = dw_config()
        state = initial_state(grid, cfg, np.zeros((8, 8)))
        with pytest.raises(ValueError):
            step(grid, cfg, state, 0.0)
        with pytest.raises(ValueError, match="unknown scheme 'bogus'"):
            dw_config(scheme="bogus")
