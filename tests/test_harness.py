import json
import os

import numpy as np
import pytest

from acflow import harness
from acflow.errors import NumericFailure
from acflow.grid import Grid
from acflow.harness import (
    DIAGNOSTICS_HEADER,
    InvariantViolation,
    RunConfig,
    converge,
    init_random,
    init_sine,
    run,
)
from acflow.potentials import (
    DoubleWell,
    ExpSigma,
    FloryHuggins,
    modified_energy,
    total_energy,
)
from acflow.schemes import SchemeConfig
from acflow.timestep import AdaptiveStepping, UniformStepping


def dw_config(scheme="ei1"):
    pot = DoubleWell()
    return SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                        sigma=ExpSigma(1.0), scheme=scheme)


class TestInitialConditions:
    def test_sine_zero_amplitude(self):
        assert np.all(init_sine(Grid(16), 0.0) == 0.0)

    def test_sine_sup_bound(self):
        assert np.max(np.abs(init_sine(Grid(64), 0.1))) <= 0.1

    def test_sine_zero_mean(self):
        grid = Grid(64)
        assert grid.integrate(init_sine(grid, 0.1)) == pytest.approx(0.0, abs=1e-14)

    def test_random_constant_when_degenerate(self):
        out = init_random(Grid(8), 0.3, 0.3, seed=1)
        assert np.all(out == 0.3)

    def test_random_range(self):
        out = init_random(Grid(32), -0.8, 0.8, seed=2)
        assert np.all(out >= -0.8) and np.all(out <= 0.8)

    def test_random_seed_reproducibility(self):
        a = init_random(Grid(32), -0.8, 0.8, seed=3)
        b = init_random(Grid(32), -0.8, 0.8, seed=3)
        c = init_random(Grid(32), -0.8, 0.8, seed=4)
        assert np.array_equal(a, b)
        assert np.mean(a != c) > 0.99

    def test_random_rejects_inverted_range(self):
        with pytest.raises(ValueError):
            init_random(Grid(8), 1.0, -1.0, seed=0)


class TestRun:
    def test_pure_state_trajectory(self):
        grid = Grid(16)
        cfg = RunConfig(grid=grid, scheme=dw_config(), stepping=UniformStepping(0.1),
                        t_end=1.0)
        state, rows = run(np.ones((16, 16)), cfg)
        assert np.max(np.abs(state.u - 1.0)) <= 1e-13
        assert all(abs(r.energy) <= 1e-12 for r in rows)

    def test_single_step_row_count(self):
        grid = Grid(16)
        cfg = RunConfig(grid=grid, scheme=dw_config(), stepping=UniformStepping(0.5),
                        t_end=0.5)
        _, rows = run(init_sine(grid, 0.1), cfg)
        assert len(rows) == 2
        assert rows[0].tau == 0.0 and rows[1].tau == 0.5

    def test_final_step_clipped_to_t_end(self):
        grid = Grid(16)
        cfg = RunConfig(grid=grid, scheme=dw_config(), stepping=UniformStepping(0.4),
                        t_end=1.0)
        state, rows = run(init_sine(grid, 0.1), cfg)
        assert state.t == pytest.approx(1.0, abs=1e-12)
        assert rows[-1].tau == pytest.approx(0.2, rel=1e-12)

    def test_diagnostics_consistency(self):
        grid = Grid(32)
        cfg = RunConfig(grid=grid, scheme=dw_config("ei2"),
                        stepping=UniformStepping(0.05), t_end=0.5)
        _, rows = run(init_random(grid, -0.8, 0.8, 5), cfg)
        # a fresh run with identical inputs must render identical rows
        _, rows2 = run(init_random(grid, -0.8, 0.8, 5), cfg)
        for a, b in zip(rows, rows2):
            assert a.render() == b.render()

    def test_modified_energy_column_definition(self):
        grid = Grid(16)
        scfg = dw_config("ei1")
        cfg = RunConfig(grid=grid, scheme=scfg, stepping=UniformStepping(0.1),
                        t_end=0.3)
        state, rows = run(init_random(grid, -0.5, 0.5, 6), cfg)
        last = rows[-1]
        assert last.modified_energy == pytest.approx(
            modified_energy(grid, state.u, state.s, scfg.eps), abs=1e-12)

    @pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
    @pytest.mark.parametrize("boundary,potential", [("periodic", DoubleWell),
                                                    ("neumann", FloryHuggins)])
    def test_energy_columns_are_exact(self, monkeypatch, scheme, boundary,
                                      potential):
        # The rows reuse each state's cached bulk energy and one interface
        # energy; both columns must equal the energy functions bitwise.
        states = []

        def recording(fn):
            def wrapper(*args):
                states.append(fn(*args))
                return states[-1]
            return wrapper

        monkeypatch.setattr(harness, "initial_state", recording(harness.initial_state))
        monkeypatch.setattr(harness, "step", recording(harness.step))
        grid = Grid(16, 1.0, boundary)
        pot = potential()
        scfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                            sigma=ExpSigma(10.0), scheme=scheme)
        cfg = RunConfig(grid=grid, scheme=scfg, stepping=UniformStepping(0.05),
                        t_end=0.25)
        _, rows = run(init_random(grid, -0.8, 0.8, 12), cfg)
        assert len(rows) == len(states) == 6
        for row, state in zip(rows, states):
            assert row.energy == total_energy(grid, pot, state.u, scfg.eps)
            assert row.modified_energy == modified_energy(grid, state.u, state.s,
                                                          scfg.eps)

    def test_initial_g_is_exactly_one(self):
        grid = Grid(16)
        cfg = RunConfig(grid=grid, scheme=dw_config(), stepping=UniformStepping(0.1),
                        t_end=0.2)
        _, rows = run(init_random(grid, -0.5, 0.5, 7), cfg)
        assert rows[0].g == 1.0

    def test_adaptive_taus_within_bounds(self):
        grid = Grid(32)
        stepping = AdaptiveStepping(tau_min=1e-3, tau_max=0.1, alpha=1e5)
        cfg = RunConfig(grid=grid, scheme=dw_config("ei2"), stepping=stepping,
                        t_end=1.0)
        _, rows = run(init_random(grid, -0.8, 0.8, 8), cfg)
        assert rows[1].tau == stepping.tau_min  # bootstrap step
        for r in rows[1:]:
            assert stepping.tau_min * (1 - 1e-12) <= r.tau <= stepping.tau_max

    def test_adaptive_short_tail_is_split(self):
        # Clipping the fourth step to t_end would leave a final step of 0.05,
        # below tau_min = 0.1; the remaining 0.35 is split into two 0.175 steps.
        grid = Grid(16)
        stepping = AdaptiveStepping(tau_min=0.1, tau_max=0.3, alpha=1e-12)
        cfg = RunConfig(grid=grid, scheme=dw_config(), stepping=stepping,
                        t_end=1.05)
        _, rows = run(init_random(grid, -0.8, 0.8, 1), cfg)
        taus = [r.tau for r in rows[1:]]
        assert all(stepping.tau_min <= tau <= stepping.tau_max for tau in taus)
        assert taus[-2:] == pytest.approx([0.175, 0.175], rel=1e-12)
        assert rows[-1].t == cfg.t_end

    def test_adaptive_unreachable_end_is_rejected(self):
        grid = Grid(16)
        stepping = AdaptiveStepping(tau_min=0.1, tau_max=0.3, alpha=1e5)
        cfg = RunConfig(grid=grid, scheme=dw_config(), stepping=stepping,
                        t_end=0.05)
        with pytest.raises(ValueError, match=r"t=0\.0 .*tau_min=0\.1.*tau_max=0\.3"):
            run(init_random(grid, -0.8, 0.8, 1), cfg)

    def test_checked_run_rejects_initial_data_beyond_beta(self, tmp_path):
        grid = Grid(16)
        out = tmp_path / "traj"
        cfg = RunConfig(grid=grid, scheme=dw_config(), stepping=UniformStepping(0.1),
                        t_end=0.2, out_dir=str(out), check_invariants=True)
        with pytest.raises(ValueError, match=r"^initial data exceeds the bound "
                           r"beta=1\.0: sup norm 1\.3"):
            run(init_sine(grid, 1.3), cfg)
        assert not out.exists()

    def test_output_files(self, tmp_path):
        grid = Grid(16)
        out = tmp_path / "traj"
        cfg = RunConfig(grid=grid, scheme=dw_config(), stepping=UniformStepping(0.1),
                        t_end=0.4, out_dir=str(out), snapshot_every=2)
        run(init_sine(grid, 0.1), cfg)
        csv = (out / "diagnostics.csv").read_text().splitlines()
        assert csv[0] == DIAGNOSTICS_HEADER
        assert len(csv) == 1 + 5  # header + initial row + 4 steps
        snap = np.load(out / "u_2.npy")
        assert snap.shape == (16, 16)

    def test_diagnostics_bitwise_deterministic(self, tmp_path):
        grid = Grid(16)
        paths = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = RunConfig(grid=grid, scheme=dw_config("ei2"),
                            stepping=UniformStepping(0.05), t_end=0.3,
                            out_dir=str(out))
            run(init_random(grid, -0.8, 0.8, 9), cfg)
            paths.append(out / "diagnostics.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()


def _recorded_run(monkeypatch, out, n_steps=6, fail_at=None,
                  check_invariants=False):
    """An ei2 run of n_steps into ``out`` that records every state it steps to.
    ``fail_at(state)`` may replace the state a step returns, or raise."""
    states = []
    original = harness.step

    def recording(*args):
        state = original(*args)
        if fail_at is not None:
            state = fail_at(state)
        states.append(state)
        return state

    monkeypatch.setattr(harness, "step", recording)
    grid = Grid(16)
    cfg = RunConfig(grid=grid, scheme=dw_config("ei2"), stepping=UniformStepping(0.1),
                    t_end=0.1 * n_steps, out_dir=str(out), snapshot_every=2,
                    check_invariants=check_invariants)
    u0 = init_random(grid, -0.8, 0.8, 4)
    return u0, cfg, states


class TestOutputFiles:
    def test_success_writes_rows_and_exact_snapshots(self, monkeypatch, tmp_path):
        out = tmp_path / "traj"
        u0, cfg, states = _recorded_run(monkeypatch, out, n_steps=7)
        _, rows = run(u0, cfg)
        assert sorted(os.listdir(out)) == sorted(
            ["diagnostics.csv", "u_0.npy", "u_2.npy", "u_4.npy", "u_6.npy"])
        assert (out / "diagnostics.csv").read_text() == "".join(
            line + "\n" for line in [DIAGNOSTICS_HEADER] + [r.render() for r in rows])
        fields = {0: u0, **{s.step: s.u for s in states}}
        for k in (0, 2, 4, 6):
            snap = np.load(out / f"u_{k}.npy", allow_pickle=False)
            assert snap.dtype == np.float64 and snap.shape == (16, 16)
            assert snap.tobytes() == fields[k].tobytes()

    def test_failed_step_leaves_record(self, monkeypatch, tmp_path):
        def fail_at_3(state):
            if state.step == 3:
                raise NumericFailure("injected", step=3)
            return state

        out = tmp_path / "traj"
        u0, cfg, states = _recorded_run(monkeypatch, out, fail_at=fail_at_3)
        with pytest.raises(NumericFailure) as info:
            run(u0, cfg)
        exc = info.value
        assert type(exc) is NumericFailure
        assert (exc.step, exc.t, exc.tau) == (3, states[-1].t, 0.1)
        assert str(exc) == f"step 3 from t={states[-1].t!r} with tau=0.1: injected"

        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert lines[0] == DIAGNOSTICS_HEADER
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2]
        record = json.loads((out / "failure.json").read_text())
        assert record["step"] == 3
        assert record["t"] == states[-1].t
        assert record["tau"] == 0.1
        assert record["error"] == "NumericFailure"
        assert record["message"] == str(exc)
        last = record["last_good_row"]
        assert last["step"] == 2
        assert harness.DiagnosticsRow(**last).render() == lines[-1]
        field = np.load(out / record["field"], allow_pickle=False)
        assert states[-1].step == 2
        assert field.tobytes() == states[-1].u.tobytes()

    def test_invariant_violation_leaves_record(self, monkeypatch, tmp_path):
        def break_mbp_at_3(state):
            if state.step == 3:
                state.u = state.u + 2.0
            return state

        out = tmp_path / "traj"
        u0, cfg, states = _recorded_run(monkeypatch, out, fail_at=break_mbp_at_3,
                                        check_invariants=True)
        with pytest.raises(InvariantViolation, match=r"^step 3 from t=.* with "
                           r"tau=0\.1: MBP violated") as info:
            run(u0, cfg)
        lines = (out / "diagnostics.csv").read_text().splitlines()
        assert [int(line.split(",")[0]) for line in lines[1:]] == [0, 1, 2, 3]
        assert lines[-1] == info.value.row.render()
        record = json.loads((out / "failure.json").read_text())
        assert (record["step"], record["error"]) == (3, "InvariantViolation")
        assert harness.DiagnosticsRow(**record["last_good_row"]).render() == lines[-2]
        field = np.load(out / record["field"], allow_pickle=False)
        assert field.tobytes() == states[1].u.tobytes()  # the step-2 state


    def test_auxiliary_bound_violation_leaves_record(self, monkeypatch, tmp_path):
        # From a pure state (E(u0) = 0) s creeps up by 4e-11 a step: each rise
        # of the modified energy is within ENERGY_TOL, but at step 3 s exceeds
        # E(u0) + ENERGY_TOL.
        original = harness.step

        def creeping(*args):
            state = original(*args)
            state.s = 4e-11 * state.step
            return state

        monkeypatch.setattr(harness, "step", creeping)
        out = tmp_path / "traj"
        cfg = RunConfig(grid=Grid(16), scheme=dw_config("ei2"),
                        stepping=UniformStepping(0.1), t_end=0.6, out_dir=str(out),
                        check_invariants=True)
        with pytest.raises(InvariantViolation, match=r"^step 3 from t=.* with "
                           r"tau=0\.1: auxiliary variable s=1\.2.* exceeds "
                           r"E\(u0\)=0\.0$"):
            run(np.ones((16, 16)), cfg)
        record = json.loads((out / "failure.json").read_text())
        assert (record["step"], record["error"]) == (3, "InvariantViolation")
        assert record["last_good_row"]["step"] == 2
        assert (out / record["field"]).exists()


class TestConverge:
    def test_errors_decrease_and_slope(self):
        grid = Grid(32)
        report = converge(grid, dw_config("ei1"), init_sine(grid, 0.1), 1.0,
                          taus=[1 / 4, 1 / 8, 1 / 16], tau_ref=1 / 1024)
        errs = [e["l2_error"] for e in report["entries"]]
        assert errs == sorted(errs, reverse=True)
        assert 0.7 <= report["slope"] <= 1.3

    def test_rejects_coarse_reference(self):
        grid = Grid(16)
        with pytest.raises(ValueError):
            converge(grid, dw_config(), init_sine(grid, 0.1), 1.0,
                     taus=[1 / 4], tau_ref=1 / 16)

    def test_rejects_nondividing_tau(self):
        grid = Grid(16)
        with pytest.raises(ValueError):
            converge(grid, dw_config(), init_sine(grid, 0.1), 1.0,
                     taus=[0.3], tau_ref=1 / 1024)
