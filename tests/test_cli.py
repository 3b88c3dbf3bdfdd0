import json

import numpy as np
import pytest

from acflow.cli import EXIT_NUMERIC, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from acflow.harness import DIAGNOSTICS_HEADER
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


def test_usage_error_exit_code():
    assert main(["run", "--scheme", "rk4"]) == EXIT_USAGE
    assert main(["converge", "--taus", "", "--tau-ref", "0.001"]) == EXIT_USAGE


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
])
def test_parameter_must_be_finite_and_positive(args, name, capsys):
    # A later flag overrides the small set-up's value of the same flag.
    command, *flags = args.split()
    assert main(SMALL[command] + flags) == EXIT_USAGE
    assert f"usage error: {name} must be finite and positive" in capsys.readouterr().err


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


def test_verify_rejects_run_flags():
    assert main(["verify", "--grid-m", "64"]) == EXIT_USAGE


def test_converge_rejects_run_flags():
    base = ["converge", "--grid-m", "16", "--taus", "0.25,0.125",
            "--tau-ref", "0.00390625"]
    for flag in (["--tau", "0.1"], ["--adaptive"], ["--tau-min", "5"],
                 ["--tau-max", "1"], ["--alpha", "1"], ["--out", "d"],
                 ["--snapshot-every", "1"]):
        assert main(base + flag) == EXIT_USAGE
