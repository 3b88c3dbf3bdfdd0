import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from acflow.cli import (EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, build_parser,
                        main)
from acflow.harness import DIAGNOSTICS_HEADER
from acflow.potentials import POTENTIALS, SIGMAS
from acflow.verify import verify_suite


def test_run_writes_diagnostics(tmp_path, capsys):
    out = tmp_path / "traj"
    rc = main(["run", "--grid-m", "32", "--scheme", "ei1", "--tau", "0.1",
               "--t-end", "0.5", "--init", "sine", "--amplitude", "0.1",
               "--out", str(out), "--snapshot-every", "2"])
    assert rc == EXIT_OK
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER
    assert len(lines) == 1 + 6  # header, t=0 row, 5 steps
    assert (out / "u_2.npy").exists()
    assert "finished" in capsys.readouterr().out


def test_run_adaptive_flags(tmp_path):
    out = tmp_path / "adapt"
    rc = main(["run", "--grid-m", "32", "--boundary", "neumann",
               "--potential", "flory-huggins", "--scheme", "ei2",
               "--adaptive", "--tau-min", "0.001", "--tau-max", "0.05",
               "--alpha", "100000", "--t-end", "0.1", "--init", "random",
               "--lo", "-0.8", "--hi", "0.8", "--seed", "3", "--out", str(out)])
    assert rc == EXIT_OK
    rows = (out / "diagnostics.csv").read_text().splitlines()[2:]
    taus = [float(r.split(",")[2]) for r in rows]
    assert all(0.001 * (1 - 1e-12) <= t <= 0.05 for t in taus)


def test_numeric_failure_names_step_t_and_tau(capsys):
    # kappa far below the Lipschitz bound: the first step leaves (-1, 1).
    rc = main(["run", "--potential", "flory-huggins", "--boundary", "neumann",
               "--kappa", "0.01", "--tau", "5", "--t-end", "5", "--init", "random",
               "--seed", "1"])
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert "step 1 " in err and "t=0.0 " in err and "tau=5.0:" in err
    assert "Flory-Huggins evaluation outside (-1, 1)" in err
    # A step of the convergence study's reference names itself the same way.
    rc = main(["converge", "--grid-m", "16", "--sigma-a", "1e9", "--taus",
               "0.25,0.125", "--tau-ref", "0.00390625", "--t-end", "1"])
    assert rc == EXIT_NUMERIC
    assert capsys.readouterr().err.startswith("numeric failure: step ")


@pytest.mark.parametrize("command", [
    ["run", "--grid-m", "3000000"],
    ["converge", "--grid-m", "3000000", "--taus", "0.5,0.25", "--tau-ref",
     "0.0078125"]], ids=["run", "converge"])
def test_allocation_failure_is_usage_error(monkeypatch, command, capsys):
    # A grid too large for memory is refused as a usage error naming the
    # request.  Grid is made to fail, so nothing large is ever allocated.
    def no_memory(*args, **kwargs):
        raise MemoryError("Unable to allocate 32.7 TiB")

    monkeypatch.setattr("acflow.cli.Grid", no_memory)
    assert main(command) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err == (f"usage error: not enough memory for acflow {' '.join(command)}"
                   ": Unable to allocate 32.7 TiB\n")


LARGE_DOMAIN = ["run", "--grid-m", "64", "--grid-l", "100", "--eps", "1",
                "--potential", "flory-huggins", "--init", "random", "--lo",
                "-0.79", "--hi", "0.79", "--tau", "1", "--t-end", "5"]


def test_large_domain_runs_with_the_default_rate(tmp_path):
    # sigma reads energy per unit area, so exp's default rate a = 1 does not
    # grow with |Omega| = L^2; read per domain, it failed at step 3 here.
    out = tmp_path / "traj"
    assert main(LARGE_DOMAIN + ["--out", str(out)]) == EXIT_OK
    assert os.listdir(out) == ["diagnostics.csv"]
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER and len(lines) == 1 + 6


def test_shaping_failure_leaves_its_record(tmp_path, capsys):
    # A rate of 1.1e4 drives g out of range at step 3; the run stops there
    # and leaves the record of steps 0-2.
    out = tmp_path / "traj"
    rc = main(LARGE_DOMAIN + ["--sigma-a", "1.1e4", "--out", str(out)])
    assert rc == EXIT_NUMERIC
    err = capsys.readouterr().err
    assert err.startswith("numeric failure: step 3 from t=2.0 with tau=1.0: "
                          "shaping ratio exp(r)/exp(e1) out of range")
    assert sorted(os.listdir(out)) == ["diagnostics.csv", "failure.json",
                                       "u_2.npy"]
    lines = (out / "diagnostics.csv").read_text().splitlines()
    assert lines[0] == DIAGNOSTICS_HEADER and len(lines) == 1 + 3
    record = json.loads((out / "failure.json").read_text())
    assert (record["step"], record["t"], record["tau"]) == (3, 2.0, 1.0)
    assert record["field"] == "u_2.npy"
    row = record["last_good_row"]
    assert [format(row[name], ".17g") for name in DIAGNOSTICS_HEADER.split(",")] \
        == lines[-1].split(",")
    u2 = np.load(out / "u_2.npy")
    assert u2.shape == (64, 64) and np.max(np.abs(u2)) == row["sup_norm"]


def test_usage_error_exit_code():
    assert main(["run", "--scheme", "rk4"]) == EXIT_USAGE
    assert main(["converge", "--taus", "", "--tau-ref", "0.001"]) == EXIT_USAGE


def test_snapshots_need_an_output_directory(capsys):
    rc = main(["run", "--grid-m", "16", "--tau", "0.1", "--t-end", "0.5",
               "--snapshot-every", "1"])
    assert rc == EXIT_USAGE
    assert "usage error: snapshot_every=1 needs an out_dir" in capsys.readouterr().err


def test_unusable_output_directory_is_usage_error(tmp_path, capsys):
    taken = tmp_path / "f"
    taken.touch()
    rc = main(["run", "--grid-m", "16", "--t-end", "0.05", "--out", str(taken)])
    assert rc == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: ") and err.count("\n") == 1


@pytest.mark.parametrize("flags, taken, message", [
    ("--t-end 1e300 --tau 1e-10", None, "too many steps of tau=1e-10 to count"),
    ("--tau 1e-290 --t-end 1", None, "too many steps of tau=1e-290 to count"),
    ("--adaptive --tau-min 1e-320 --tau-max 1e-300 --t-end 1", None,
     "too many steps of tau_max=1e-300 to count"),
    ("--t-end 0.02", "diagnostics.csv", "Is a directory"),
    ("--t-end 0.02", "u_3.npy", "u_3.npy is a directory"),
], ids=["count-overflow", "uniform-stall", "adaptive-stall", "csv-unwritable",
        "snapshot-name-taken"])
def test_refused_run_leaves_the_output_directory_as_it_was(flags, taken, message,
                                                           tmp_path, capsys):
    # The step policy refuses the run at its first step, or a name run() would
    # open or remove is a directory (``taken``), before run() truncates
    # diagnostics.csv or clears an earlier run's failure.json and snapshots.
    out = tmp_path / "traj"
    out.mkdir()
    files = {"failure.json": b"x\n", "u_3.npy": b"y\n", "u_5.npy": b"z\n",
             "diagnostics.csv": b"keep\n"}
    files.pop(taken, None)
    for name, data in files.items():
        (out / name).write_bytes(data)
    if taken is not None:
        (out / taken).mkdir()
    rc = main(["run", "--grid-m", "8", *flags.split(), "--out", str(out)])
    assert rc == EXIT_USAGE
    assert message in capsys.readouterr().err
    left = [*files, taken] if taken is not None else [*files]
    assert sorted(os.listdir(out)) == sorted(left)
    assert {name: (out / name).read_bytes() for name in files} == files


def test_adaptive_tail_lands_on_t_end(tmp_path):
    # After 0.1 and four steps of 0.15, 0.17 is left: too long for one step
    # under tau_max, so it is halved into two steps of 0.085 >= tau_min / 2.
    out = tmp_path / "traj"
    rc = main(["run", "--grid-m", "8", "--adaptive", "--tau-min", "0.1",
               "--tau-max", "0.15", "--alpha", "1e-12", "--t-end", "0.87",
               "--out", str(out)])
    assert rc == EXIT_OK
    rows = [line.split(",") for line in
            (out / "diagnostics.csv").read_text().splitlines()[2:]]
    taus = [float(r[2]) for r in rows]
    assert float(rows[-1][1]) == pytest.approx(0.87, abs=1e-12)
    assert all(0.05 <= tau <= 0.15 for tau in taus)
    assert taus[-2:] == pytest.approx([0.085, 0.085], rel=1e-12)
    assert sorted(os.listdir(out)) == ["diagnostics.csv"]


def test_import_loads_no_scipy_optimize(tmp_path):
    # A fresh interpreter: importing the package and running a Flory-Huggins
    # step loads scipy.fft, but none of scipy's optimize, sparse or linalg.
    script = (
        "import sys\n"
        "import acflow, acflow.cli, acflow.verify\n"
        "rc = acflow.cli.main(['run', '--grid-m', '8', '--potential', 'flory-huggins',\n"
        "                      '--t-end', '0.01', '--tau', '0.01'])\n"
        "print(rc, [m for m in ('scipy.optimize', 'scipy.sparse', 'scipy.linalg')\n"
        "           if m in sys.modules])\n")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env=env, cwd=tmp_path, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == f"{EXIT_OK} []"


SMALL = {"run": ["run", "--grid-m", "16", "--t-end", "0.1"],
         "converge": ["converge", "--grid-m", "16", "--t-end", "1",
                      "--taus", "0.5,0.25", "--tau-ref", "0.0078125"]}


@pytest.mark.parametrize("args, name", [
    ("run --t-end nan", "t_end"),
    ("converge --taus 0,0.25", "tau"),
    ("converge --tau-ref 0", "tau_ref"),
    ("converge --t-end inf", "t_end"),
    ("run --tau nan", "tau"),
    ("run --eps nan", "eps"),
    ("run --kappa nan", "kappa"),
    ("run --sigma-a nan", "exp sigma rate a"),
    ("run --grid-l nan", "domain side length"),
    ("run --adaptive --alpha nan", "alpha"),
    ("run --eps 1e300", "eps^2"),
    ("run --eps 1e-170", "eps^2"),
])
def test_parameter_must_be_finite_and_positive(args, name, capsys):
    # A later flag overrides the small set-up's value of the same flag.
    command, *flags = args.split()
    assert main(SMALL[command] + flags) == EXIT_USAGE
    assert f"usage error: {name} must be finite and positive" in capsys.readouterr().err


@pytest.mark.parametrize("value", ["1e-320", "1e-300", "1e-160", "1e160", "1e300"])
@pytest.mark.parametrize("flag", ["--grid-l", "--theta", "--theta-c", "--sigma-a",
                                  "--eps", "--kappa", "--amplitude", "--lo", "--hi"])
def test_extreme_setup_values_exit_cleanly(flag, value):
    # Every set-up value, however extreme, ends in an exit code: a result, a
    # usage error or a numeric failure, never an exception out of main.
    # Step sizes have their own net, test_extreme_step_sizes_exit_cleanly.
    args = ["run", "--grid-m", "8", "--potential", "flory-huggins", "--init",
            "random", "--t-end", "0.01", "--tau", "0.01", flag, value]
    assert main(args) in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC)



@pytest.mark.parametrize("value", ["1e-320", "1e-300", "1e-160", "1e160", "1e300"])
def test_extreme_amplitudes_exit_cleanly(value):
    # --amplitude is read by the sine initial condition only.
    args = ["run", "--grid-m", "8", "--potential", "flory-huggins", "--init",
            "sine", "--t-end", "0.01", "--tau", "0.01", "--amplitude", value]
    assert main(args) in (EXIT_OK, EXIT_USAGE, EXIT_NUMERIC)

@pytest.mark.parametrize("flags, code", [
    ("--t-end 1e300 --tau 1e-10", EXIT_USAGE),  # +inf steps
    ("--tau 1e-320 --t-end 1", EXIT_USAGE),  # +inf steps
    ("--tau 5e-324 --t-end 1e-300", EXIT_OK),  # -inf steps: t_end is within slack
    ("--tau 1e300 --t-end 1", EXIT_OK),
    ("--adaptive --tau-min 1e-10 --tau-max 1e300 --t-end 1e300", EXIT_OK),
    ("--tau 1e-290 --t-end 1", EXIT_USAGE),  # 1 + tau == 1: t never moves
    ("--adaptive --tau-min 1e-320 --tau-max 1e-300 --t-end 1", EXIT_USAGE),
])
def test_extreme_step_sizes_exit_cleanly(flags, code, capsys):
    # A step that cannot move t at t_end, so that the run would stall or
    # need more than ~2**52 steps, is a usage error at the first step, not an
    # exception out of main or a run that never ends.
    assert main(["run", "--grid-m", "8", *flags.split()]) == code
    err = capsys.readouterr().err
    if code == EXIT_USAGE:
        assert re.fullmatch(r"usage error: t_end=\S+ is too many steps of "
                            r"tau(_max)?=\S+ to count\n", err)


@pytest.mark.parametrize("kappa", ["1e23", "1e160"])
def test_energy_rise_at_huge_kappa_fails_the_run(kappa, capsys):
    # Far above the Lipschitz bound ei2's corrector raises the modified energy
    # by roundoff times kappa; the run must fail, not exit 0.
    args = ["run", "--grid-m", "8", "--potential", "flory-huggins", "--init",
            "random", "--t-end", "0.01", "--tau", "0.01", "--kappa", kappa]
    assert main(args) == EXIT_NUMERIC
    assert ("numeric failure: step 1 from t=0.0 with tau=0.01: modified energy "
            "increased" in capsys.readouterr().err)


@pytest.mark.parametrize("taus", ["0.25", "0.25,0.25"])
def test_converge_needs_two_distinct_taus(taus, capsys):
    # One distinct step size leaves no slope to fit.
    assert main(SMALL["converge"] + ["--taus", taus]) == EXIT_USAGE
    assert ("usage error: need at least two distinct step sizes"
            in capsys.readouterr().err)


def test_initial_data_exceeding_beta_is_usage_error():
    rc = main(["run", "--grid-m", "16", "--potential", "flory-huggins",
               "--init", "random", "--lo", "-1.5", "--hi", "1.5",
               "--t-end", "0.1"])
    assert rc == EXIT_USAGE
    bounds = ["--init", "random", "--lo", "-1.5", "--hi", "1.5"]
    assert main(SMALL["converge"] + bounds) == EXIT_USAGE


def test_converge_output(capsys):
    rc = main(["converge", "--grid-m", "32", "--scheme", "ei1", "--t-end", "1",
               "--taus", "0.25,0.125", "--tau-ref", str(1 / 1024),
               "--init", "sine"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "tau,l2_error,linf_error"
    assert out[-1].startswith("slope,")
    slope = float(out[-1].split(",")[1])
    assert 0.5 <= slope <= 1.5


def test_verify_lemmas_profile(capsys):
    rc = main(["verify", "--profile", "lemmas"])
    assert rc == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["passed"] and report["failures"] == []


def test_verify_failure_exit_code(capsys):
    rc = main(["verify", "--profile", "invariants", "--kappa", "0.5"])
    assert rc == EXIT_VERIFY
    report = json.loads(capsys.readouterr().out)
    assert report["failures"]


def test_verify_empty_profile(capsys):
    rc = main(["verify", "--profile"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out)["checks"] == []


def test_verify_seed_zero_is_used(capsys):
    rc = main(["verify", "--profile", "lemmas", "--seed", "0"])
    assert rc == EXIT_OK
    assert json.loads(capsys.readouterr().out) == verify_suite(("lemmas",), seed=0)


@pytest.mark.parametrize("args", [
    "run --grid-m 8 --t-end 0.01 --init random --seed -1",
    "verify --profile lemmas --seed -1",
])
def test_seed_must_be_non_negative(args, capsys):
    assert main(args.split()) == EXIT_USAGE
    assert "usage error: seed must be an integer >= 0" in capsys.readouterr().err


def test_module_entry_point_runs():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    done = subprocess.run([sys.executable, "-m", "acflow.cli", "verify",
                           "--profile", "lemmas"], capture_output=True,
                          text=True, env=env, timeout=300)
    assert done.returncode == EXIT_OK, done.stderr
    assert json.loads(done.stdout)["passed"] is True


def test_verify_rejects_run_flags():
    assert main(["verify", "--grid-m", "64"]) == EXIT_USAGE


def test_converge_rejects_run_flags():
    base = ["converge", "--grid-m", "16", "--taus", "0.25,0.125",
            "--tau-ref", "0.00390625"]
    for flag in (["--tau", "0.1"], ["--adaptive"], ["--tau-min", "5"],
                 ["--tau-max", "1"], ["--alpha", "1"], ["--out", "d"],
                 ["--snapshot-every", "1"]):
        assert main(base + flag) == EXIT_USAGE


@pytest.mark.parametrize("flags, message", [
    ("--adaptive --tau 0.025", "--tau not read by an adaptive run"),
    ("--tau-min 0.025 --tau-max 0.025",
     "--tau-min, --tau-max not read by a uniform run"),
    ("--tau 0.01 --alpha 1e3", "--alpha not read by a uniform run"),
])
def test_run_refuses_step_flags_its_policy_does_not_read(tmp_path, flags, message,
                                                          capsys):
    # A step flag the chosen policy would ignore is a usage error naming it,
    # raised before --out is made.
    out = tmp_path / "traj"
    args = ["run", "--grid-m", "8", "--t-end", "0.05", "--out", str(out)]
    assert main(args + flags.split()) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("given", [
    "--tau 0.01", "--adaptive --tau-min 0.0001 --tau-max 0.1 --alpha 1e5"],
    ids=["uniform", "adaptive"])
def test_default_step_flags(tmp_path, given):
    # A run without its policy's flags writes, byte for byte, the
    # diagnostics.csv of the same run with the defaults given.
    base = ["run", "--grid-m", "8", "--t-end", "0.05"]
    default = [flag for flag in given.split() if flag == "--adaptive"]
    csv = []
    for name, flags in (("given", given.split()), ("default", default)):
        assert main(base + flags + ["--out", str(tmp_path / name)]) == EXIT_OK
        csv.append((tmp_path / name / "diagnostics.csv").read_bytes())
    assert csv[0] == csv[1]
    assert csv[0].count(b"\n") == (4 if default else 7)


@pytest.mark.parametrize("command", ["run", "converge"])
def test_potential_and_sigma_choices_come_from_the_library(command):
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    choices = {a.dest: a.choices for a in sub.choices[command]._actions}
    assert choices["potential"] == POTENTIALS == ("double-well", "flory-huggins")
    assert choices["sigma"] == SIGMAS == ("const", "exp", "arctan", "tanh")


TINY = {"run": ["run", "--grid-m", "8", "--t-end", "0.02"],
        "converge": ["converge", "--grid-m", "8", "--t-end", "0.5", "--taus",
                     "0.25,0.125", "--tau-ref", "0.00390625"]}


@pytest.mark.parametrize("reads, refuses, flags, message", [
    ("--potential flory-huggins", "--potential double-well",
     "--theta 0.3 --theta-c 0.5", "--theta, --theta-c not read by --potential double-well"),
    ("--potential flory-huggins", "", "--theta-c 5",
     "--theta-c not read by --potential double-well"),
    ("--sigma exp", "--sigma const", "--sigma-a 7", "--sigma-a not read by --sigma const"),
    ("--sigma exp", "--sigma arctan", "--sigma-a 7", "--sigma-a not read by --sigma arctan"),
    ("", "--sigma tanh", "--sigma-a 100", "--sigma-a not read by --sigma tanh"),
    ("--init sine", "--init random", "--amplitude 0.2",
     "--amplitude not read by --init random"),
    ("--init random", "", "--lo -0.1 --hi 0.1 --seed 7",
     "--lo, --hi, --seed not read by --init sine"),
], ids=["theta-double-well", "theta-c-default", "sigma-a-const", "sigma-a-arctan",
        "sigma-a-tanh", "amplitude-random", "bounds-sine"])
@pytest.mark.parametrize("command", ["run", "converge"])
def test_setup_flags_are_read_by_their_choice_only(command, reads, refuses, flags,
                                                    message, tmp_path, capsys):
    # A set-up flag is read with the choice that reads it, and is a usage
    # error naming it and the choice made otherwise, raised before --out is
    # made.
    out = ["--out", str(tmp_path / "traj")] if command == "run" else []
    assert main(TINY[command] + reads.split() + flags.split()) == EXIT_OK
    capsys.readouterr()
    assert main(TINY[command] + refuses.split() + flags.split() + out) == EXIT_USAGE
    assert capsys.readouterr().err == f"usage error: {message}\n"
    assert not (tmp_path / "traj").exists()


def test_unread_flags_are_named_together(capsys):
    args = TINY["converge"] + "--sigma const --sigma-a 7 --init sine --seed 3".split()
    assert main(args) == EXIT_USAGE
    assert capsys.readouterr().err == ("usage error: --sigma-a not read by --sigma "
                                       "const; --seed not read by --init sine\n")


@pytest.mark.parametrize("profile, reads", [
    ("invariants", True), ("lemmas invariants", True), ("lemmas", False),
    ("lemmas oracles", False), ("", False)])
def test_verify_reads_kappa_with_the_invariants_profile_only(monkeypatch, profile,
                                                            reads, capsys):
    calls = []
    monkeypatch.setattr("acflow.cli.verify_suite", lambda profiles, seed, kappa:
                        calls.append(kappa) or {"passed": True})
    args = ["verify", "--profile", *profile.split()]
    assert main(args) == EXIT_OK
    assert main(args + ["--kappa", "0.5"]) == (EXIT_OK if reads else EXIT_USAGE)
    assert calls == ([None, 0.5] if reads else [None])
    if not reads:
        made = f"--profile {profile}".rstrip()
        assert capsys.readouterr().err == f"usage error: --kappa not read by {made}\n"


@pytest.mark.parametrize("choices, defaults", [
    ("", "--potential double-well --sigma exp --sigma-a 1 --init sine --amplitude 0.1"),
    ("--potential flory-huggins --init random",
     "--theta 0.8 --theta-c 1.6 --lo -0.8 --hi 0.8 --seed 0"),
], ids=["double-well-sine", "flory-huggins-random"])
@pytest.mark.parametrize("command", ["run", "converge"])
def test_default_setup_flags(command, choices, defaults, tmp_path, capsys):
    # A command without its choices' set-up flags prints, and writes, byte for
    # byte what it does with their defaults given.
    outputs = []
    for name, flags in (("given", choices + " " + defaults), ("default", choices)):
        out = ["--out", str(tmp_path / name)] if command == "run" else []
        assert main(TINY[command] + flags.split() + out) == EXIT_OK
        outputs.append(capsys.readouterr().out)
        if command == "run":
            outputs.append((tmp_path / name / "diagnostics.csv").read_bytes())
    half = len(outputs) // 2
    assert outputs[:half] == outputs[half:]
