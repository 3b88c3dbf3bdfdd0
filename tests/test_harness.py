import json
import os
import pickle

import numpy as np
import pytest

from acflow import harness, schemes
from acflow.errors import NumericFailure
from acflow.grid import Grid
from acflow.harness import (
    DIAGNOSTICS_HEADER,
    InvariantViolation,
    RunConfig,
    init_random,
    init_sine,
    run,
)
from acflow.potentials import (
    DoubleWell,
    ExpSigma,
    FloryHuggins,
    TanhSigma,
    bulk_energy,
    interface_energy,
)
from acflow.schemes import SchemeConfig, converge, initial_state, reference_solution, step
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
        integral = grid.h * grid.h * float(np.sum(init_sine(grid, 0.1)))
        assert integral == pytest.approx(0.0, abs=1e-14)

    @pytest.mark.parametrize("boundary", ["periodic", "neumann"])
    @pytest.mark.parametrize("m", [2, 3, 8, 127, 128, 300, 512])
    def test_sine_is_the_textbook_formula_bitwise(self, m, boundary):
        # amplitude sin(w x) sin(w y) on full coordinate fields of the nodes
        # x_i = (i+1)h (periodic) or (i+1/2)h (Neumann).
        offset = 1.0 if boundary == "periodic" else 0.5
        for length in [1.0, 1.3, 100.0]:
            grid = Grid(m, length, boundary)
            nodes = (np.arange(m) + offset) * grid.h
            x, y = np.meshgrid(nodes, nodes, indexing="ij")
            w = 2.0 * np.pi / length
            for amplitude in [0.1, 0.1234, -0.7, 1e-300]:
                u = init_sine(grid, amplitude)
                expected = amplitude * np.sin(w * x) * np.sin(w * y)
                assert u.dtype == np.float64 and u.flags.c_contiguous
                assert u.tobytes() == expected.tobytes()

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
        fresh = interface_energy(grid, grid.fast_forward(state.u), scfg.eps) + state.s
        assert last.modified_energy == pytest.approx(fresh, abs=1e-12)

    @pytest.mark.parametrize("scheme", ["ei1", "ei2", "stab1"])
    @pytest.mark.parametrize("boundary,potential", [("periodic", DoubleWell),
                                                    ("neumann", FloryHuggins)])
    def test_energy_columns_are_exact(self, monkeypatch, scheme, boundary,
                                      potential):
        # The rows reuse each state's cached bulk energy and spectrum; both
        # columns must equal the energy sums on (u, u_hat) bitwise.
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
            interface = interface_energy(grid, state.u_hat, scfg.eps)
            assert row.energy == interface + bulk_energy(grid, pot, state.u)
            assert row.modified_energy == interface + state.s

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

    def test_adaptive_horizon_below_tau_min_is_one_step(self):
        # No step can be tau_min = 0.1 when t_end = 0.05: the run takes one
        # step of t_end.
        grid = Grid(16)
        stepping = AdaptiveStepping(tau_min=0.1, tau_max=0.3, alpha=1e5)
        cfg = RunConfig(grid=grid, scheme=dw_config(), stepping=stepping,
                        t_end=0.05)
        _, rows = run(init_random(grid, -0.8, 0.8, 1), cfg)
        assert [(r.step, r.t, r.tau) for r in rows[1:]] == [(1, 0.05, 0.05)]

    @pytest.mark.parametrize("entry", [
        "run-checked", "run-unchecked", "converge", "reference_solution",
        "initial_state"])
    def test_initial_data_beyond_beta_is_rejected(self, tmp_path, entry):
        # Every entry point starts from initial_state, which applies the rule.
        grid = Grid(16)
        out = tmp_path / "traj"
        u0, scfg = init_sine(grid, 1.3), dw_config()
        cfg = RunConfig(grid=grid, scheme=scfg, stepping=UniformStepping(0.1),
                        t_end=0.2, out_dir=str(out),
                        check_invariants=entry == "run-checked")
        enter = {
            "run-checked": lambda: run(u0, cfg),
            "run-unchecked": lambda: run(u0, cfg),
            "converge": lambda: converge(grid, scfg, u0, 1.0, [0.5, 0.25],
                                         1 / 128),
            "reference_solution": lambda: reference_solution(grid, scfg, u0,
                                                             1.0, 1 / 128),
            "initial_state": lambda: initial_state(grid, scfg, u0),
        }[entry]
        with pytest.raises(ValueError, match=r"^initial data exceeds the bound "
                           r"beta=1\.0: sup norm 1\.3"):
            enter()
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

    @pytest.mark.parametrize("every", [0.5, 2.0, -1, np.nan])
    def test_snapshot_every_must_be_a_count(self, tmp_path, every):
        # 0.5 used to pass a sign check, and step % 0.5 == 0 then wrote a
        # snapshot at every step.
        with pytest.raises(ValueError, match="snapshot_every"):
            RunConfig(grid=Grid(16), scheme=dw_config(), stepping=UniformStepping(0.1),
                      t_end=0.5, out_dir=str(tmp_path), snapshot_every=every)

    def test_tanh_run_through_large_negative_energy(self):
        # On a 10 x 10 domain E1(u) falls to about -19, where 1 + tanh(x)
        # loses every digit as a difference: the ratio read g = 1 exactly and
        # then divided by zero at step 29.
        grid = Grid(32, 10.0)
        pot = FloryHuggins()
        scfg = SchemeConfig(eps=0.01, kappa=pot.lipschitz, potential=pot,
                            sigma=TanhSigma(), scheme="ei2")
        cfg = RunConfig(grid=grid, scheme=scfg, stepping=UniformStepping(0.05),
                        t_end=2.0, check_invariants=True)
        state, rows = run(init_random(grid, -0.8, 0.8, 1), cfg)
        assert state.t == pytest.approx(2.0, rel=1e-12)
        assert all(row.g != 1.0 for row in rows[1:])

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
                raise NumericFailure("injected", 3, states[-1].t, 0.1)
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

    @staticmethod
    def assert_pickles(exc):
        """A pickle round trip keeps the type, message, step, t, tau and row."""
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is type(exc) and str(back) == str(exc)
        assert (back.step, back.t, back.tau, back.row) == (exc.step, exc.t, exc.tau,
                                                           exc.row)

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
        self.assert_pickles(info.value)
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
                           r"E\(u0\)=0\.0$") as info:
            run(np.ones((16, 16)), cfg)
        self.assert_pickles(info.value)
        record = json.loads((out / "failure.json").read_text())
        assert (record["step"], record["error"]) == (3, "InvariantViolation")
        assert record["last_good_row"]["step"] == 2
        assert (out / record["field"]).exists()

    def test_energy_rise_leaves_record(self, monkeypatch, tmp_path):
        # From a pure state s jumps to 1e-9 at step 2: the modified energy
        # rises by more than ENERGY_TOL, which is checked before s's bound.
        original = harness.step

        def planted(*args):
            state = original(*args)
            if state.step == 2:
                state.s = 1e-9
            return state

        monkeypatch.setattr(harness, "step", planted)
        out = tmp_path / "traj"
        cfg = RunConfig(grid=Grid(16), scheme=dw_config("ei2"),
                        stepping=UniformStepping(0.1), t_end=0.6, out_dir=str(out),
                        check_invariants=True)
        with pytest.raises(InvariantViolation, match=r"^step 2 from t=0\.1 with "
                           r"tau=0\.1: modified energy increased: 0\.0 -> "
                           r"1e-09$") as info:
            run(np.ones((16, 16)), cfg)
        assert (info.value.step, info.value.t, info.value.tau) == (2, 0.1, 0.1)
        self.assert_pickles(info.value)
        record = json.loads((out / "failure.json").read_text())
        assert (record["step"], record["t"], record["tau"]) == (2, 0.1, 0.1)
        assert record["error"] == "InvariantViolation"
        assert record["last_good_row"]["step"] == 1
        assert (out / record["field"]).exists()

    def test_success_removes_an_earlier_failure_record(self, monkeypatch,
                                                        tmp_path):
        def fail_at_3(state):
            if state.step == 3:
                raise NumericFailure("injected", 3, states[-1].t, 0.1)
            return state

        out = tmp_path / "traj"
        u0, cfg, states = _recorded_run(monkeypatch, out, fail_at=fail_at_3)
        with pytest.raises(NumericFailure):
            run(u0, cfg)
        assert (out / "failure.json").exists()
        (out / "notes.txt").write_text("kept")
        monkeypatch.undo()
        _, rows = run(u0, cfg)
        assert rows[-1].step == 6
        assert not (out / "failure.json").exists()
        assert (out / "notes.txt").read_text() == "kept"

    def test_rerun_leaves_only_its_own_snapshots(self, tmp_path):
        # A shorter rerun into the same directory removes every u_<k>.npy of
        # the first run, and no other file.
        grid, out = Grid(16), tmp_path / "traj"
        for t_end, every in ((1.0, 1), (0.5, 5)):
            run(init_sine(grid, 0.1),
                RunConfig(grid=grid, scheme=dw_config("ei2"),
                          stepping=UniformStepping(0.1), t_end=t_end,
                          out_dir=str(out), snapshot_every=every))
            (out / "u_final.npy").write_text("kept")
        assert sorted(os.listdir(out)) == ["diagnostics.csv", "u_0.npy", "u_5.npy",
                                           "u_final.npy"]


class TestEnergyGuard:
    """A run without check_invariants still holds every step to MBP, and to
    modified-energy decay and s <= E(u0) with a slack of ENERGY_TOL *
    max(1, |E(u0)|)."""

    @staticmethod
    def _run(monkeypatch, plant, u0=1.0, length=1.0, checked=False, out_dir=None):
        original = harness.step

        def planted(*args):
            state = original(*args)
            plant(state)
            return state

        monkeypatch.setattr(harness, "step", planted)
        cfg = RunConfig(grid=Grid(16, length), scheme=dw_config("ei2"),
                        stepping=UniformStepping(0.1), t_end=0.6,
                        out_dir=out_dir, check_invariants=checked)
        return run(np.full((16, 16), u0), cfg)

    def test_energy_rise_fails_an_unchecked_run(self, monkeypatch):
        def jump(state):
            if state.step == 2:
                state.s = 1e-9

        with pytest.raises(InvariantViolation, match=r"^step 2 from t=0\.1 with "
                           r"tau=0\.1: modified energy increased: 0\.0 -> 1e-09$"):
            self._run(monkeypatch, jump)

    def test_auxiliary_bound_fails_an_unchecked_run(self, monkeypatch):
        def creep(state):
            state.s = 4e-11 * state.step

        with pytest.raises(InvariantViolation, match=r"^step 3 from .*: auxiliary "
                           r"variable s=1\.2.* exceeds E\(u0\)=0\.0$"):
            self._run(monkeypatch, creep)

    def test_mbp_break_fails_an_unchecked_run(self, monkeypatch, tmp_path):
        def shift(state):
            if state.step == 3:
                state.u = state.u + 2.0

        with pytest.raises(InvariantViolation, match=r"^step 3 from t=0\.2 with "
                           r"tau=0\.1: MBP violated: sup norm 3\.0 > beta 1\.0$"):
            self._run(monkeypatch, shift, out_dir=str(tmp_path))
        record = json.loads((tmp_path / "failure.json").read_text())
        assert (record["step"], record["error"]) == (3, "InvariantViolation")
        assert record["last_good_row"]["step"] == 2
        lines = (tmp_path / "diagnostics.csv").read_text().splitlines()
        assert len(lines) == 1 + 4  # header, t=0 row, steps 1-3

    @pytest.mark.parametrize("checked", [False, True])
    def test_only_unchecked_slack_scales_with_initial_energy(self, monkeypatch,
                                                             checked):
        # u0 = 0 on side 100 is a fixed point with E(u0) = 0.25 * 100^2 = 2500:
        # a rise of 1e-8 is within an unchecked run's slack of 2.5e-7, and
        # beyond a checked run's 1e-10.
        def bump(state):
            if state.step == 2:
                state.s += 1e-8

        if checked:
            with pytest.raises(InvariantViolation, match="modified energy increased"):
                self._run(monkeypatch, bump, 0.0, 100.0, checked)
        else:
            _, rows = self._run(monkeypatch, bump, 0.0, 100.0, checked)
            assert rows[0].energy == 2500.0 and rows[-1].s == 2500.0 + 1e-8


class TestConverge:
    def test_errors_decrease_and_slope(self):
        grid = Grid(32)
        report = converge(grid, dw_config("ei1"), init_sine(grid, 0.1), 1.0,
                          taus=[1 / 4, 1 / 8, 1 / 16], tau_ref=1 / 1024)
        errs = [e["l2_error"] for e in report["entries"]]
        assert errs == sorted(errs, reverse=True)
        assert 0.7 <= report["slope"] <= 1.3

    def test_errors_are_the_norms_of_each_sweep(self):
        # Each entry's errors are norm2 and norm_inf of (sweep - reference),
        # bit for bit, with the sweep rebuilt from initial_state and step.
        grid, scfg = Grid(16, 1.0, "neumann"), dw_config("ei2")
        u0, taus = init_random(grid, -0.8, 0.8, 9), [1 / 4, 1 / 8]
        report = converge(grid, scfg, u0, 1.0, taus=taus, tau_ref=1 / 256)
        ref = reference_solution(grid, scfg, u0, 1.0, 1 / 256)
        assert [e["tau"] for e in report["entries"]] == taus
        for entry in report["entries"]:
            state = initial_state(grid, scfg, u0)
            for _ in range(round(1.0 / entry["tau"])):
                state = step(grid, scfg, state, entry["tau"])
            diff = state.u - ref.u
            assert entry["l2_error"] == grid.norm2(diff)
            assert entry["linf_error"] == grid.norm_inf(diff)
            assert entry["l2_error"] != entry["linf_error"]

    def test_exact_fixed_point_has_no_slope(self):
        # From u0 = 0 every error is exactly 0; no log-log line can be fitted.
        grid = Grid(16)
        report = converge(grid, dw_config(), init_sine(grid, 0.0), 1.0,
                          taus=[1 / 4, 1 / 8], tau_ref=1 / 256)
        assert [e["l2_error"] for e in report["entries"]] == [0.0, 0.0]
        assert np.isnan(report["slope"])

    def test_rejects_coarse_reference(self):
        grid = Grid(16)
        with pytest.raises(ValueError):
            converge(grid, dw_config(), init_sine(grid, 0.1), 1.0,
                     taus=[1 / 4], tau_ref=1 / 16)
        with pytest.raises(ValueError, match="too coarse"):
            converge(grid, dw_config(), init_sine(grid, 0.1), 1.0,
                     taus=[1 / 4, 1 / 8], tau_ref=1 / 128)

    def test_rejects_nondividing_tau(self):
        grid = Grid(16)
        with pytest.raises(ValueError):
            converge(grid, dw_config(), init_sine(grid, 0.1), 1.0,
                     taus=[0.3], tau_ref=1 / 1024)


class TestWholeSteps:
    """converge and reference_solution take whole steps of exactly tau, none
    clipped to t_end, and refuse a bad step size before the first."""

    @staticmethod
    def _recorded_taus(monkeypatch):
        taus = []
        original = schemes.step

        def recording(grid, cfg, state, tau):
            taus.append(tau)
            return original(grid, cfg, state, tau)

        monkeypatch.setattr(schemes, "step", recording)
        return taus

    def test_reference_steps_are_whole(self, monkeypatch):
        grid = Grid(8)
        u0 = init_sine(grid, 0.1)
        taus = self._recorded_taus(monkeypatch)
        ref = reference_solution(grid, dw_config(), u0, t_end=1.0, tau_ref=0.01)
        assert taus == [0.01] * 100
        assert ref.step == 100
        # A step policy clips its last step to t_end instead.
        _, rows = run(u0, RunConfig(grid=grid, scheme=dw_config("ei2"),
                                    stepping=UniformStepping(0.01), t_end=1.0))
        assert len(rows) == 101 and rows[-1].tau == 0.009999999999999343

    def test_converge_steps_are_whole(self, monkeypatch):
        grid = Grid(8)
        taus = self._recorded_taus(monkeypatch)
        converge(grid, dw_config(), init_sine(grid, 0.1), 1.0,
                 taus=[0.05, 0.1], tau_ref=0.001)
        assert taus == [0.001] * 1000 + [0.1] * 10 + [0.05] * 20

    @pytest.mark.parametrize("call", [
        lambda grid, u0: converge(grid, dw_config(), u0, 1.0,
                                  taus=[0.1, 0.3], tau_ref=0.001),
        lambda grid, u0: converge(grid, dw_config(), u0, 1.0,
                                  taus=[0.1, 0.05], tau_ref=0.01),
        lambda grid, u0: reference_solution(grid, dw_config(), u0, 1.0, 0.3),
    ], ids=["converge-nondividing-tau", "converge-coarse-reference",
            "reference-nondividing-tau"])
    def test_refusal_takes_no_step(self, monkeypatch, call):
        grid = Grid(8)
        taus = self._recorded_taus(monkeypatch)
        with pytest.raises(ValueError,
                           match="not a whole number of steps|too coarse"):
            call(grid, init_sine(grid, 0.1))
        assert taus == []
