"""Acceptance suite: one test (and one printed PASS/FAIL line) per criterion.

Heavy shared computations (fine-step references, long trajectories) live in
module-scoped fixtures so each is produced once.  Run with ``pytest -s`` to
see the per-criterion lines.
"""

import numpy as np
import pytest

from acflow.grid import Grid
from acflow.harness import RunConfig, init_random, init_sine, run
from acflow.potentials import (
    ConstantSigma,
    DoubleWell,
    ExpSigma,
    FloryHuggins,
    total_energy,
)
from acflow.schemes import (
    SchemeConfig,
    initial_state,
    reference_solution,
    step,
)
from acflow.timestep import AdaptiveStepping, UniformStepping
from acflow.verify import verify_suite

M = 128
EPS = 0.01
SWEEP_TAUS = [2.0**-k for k in range(4, 10)]
REF_TAU = 2.0**-14
SIGMA_RATES = (1.0, 10.0, 100.0)
MBP_TOL = 1e-12
ENERGY_TOL = 1e-10


def report(criterion: str, passed: bool, detail: str = ""):
    line = f"[{'PASS' if passed else 'FAIL'}] {criterion}: {detail}"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def potentials():
    return {"double-well": DoubleWell(), "flory-huggins": FloryHuggins()}


@pytest.fixture(scope="module")
def slope_table(potentials):
    """Fitted log-log error slopes for every (scheme, potential, a) sweep.

    The fine ei2 reference is computed once per potential: the limiting
    semidiscrete solution does not depend on the shaping function, and the
    reference's own O(tau_ref^2) error is orders below every sweep error.
    """
    grid = Grid(M)
    u0 = init_sine(grid, 0.1)
    table = {}
    for pname, pot in potentials.items():
        ref_cfg = SchemeConfig(eps=EPS, kappa=pot.lipschitz, potential=pot,
                               sigma=ExpSigma(1.0), scheme="ei2")
        ref = reference_solution(grid, ref_cfg, u0, 2.0, REF_TAU)
        for scheme in ("ei1", "ei2"):
            for a in SIGMA_RATES:
                cfg = SchemeConfig(eps=EPS, kappa=pot.lipschitz, potential=pot,
                                   sigma=ExpSigma(a), scheme=scheme)
                errs = []
                for tau in SWEEP_TAUS:
                    state = initial_state(grid, cfg, u0)
                    for _ in range(round(2.0 / tau)):
                        state = step(grid, cfg, state, tau)
                    errs.append(grid.norm2(state.u - ref.u))
                slope = float(np.polyfit(np.log(SWEEP_TAUS), np.log(errs), 1)[0])
                table[(scheme, pname, a)] = slope
    return table


def test_criterion_1_first_order_convergence(slope_table):
    slopes = {k: v for k, v in slope_table.items() if k[0] == "ei1"}
    ok = all(0.85 <= s <= 1.15 for s in slopes.values())
    detail = ", ".join(f"{p}/a={a:g}: {s:.3f}" for (_, p, a), s in slopes.items())
    report("1 temporal order ei1 (slope in [0.85, 1.15])", ok, detail)


def test_criterion_2_second_order_convergence(slope_table):
    slopes = {k: v for k, v in slope_table.items() if k[0] == "ei2"}
    ok = all(1.85 <= s <= 2.15 for s in slopes.values())
    detail = ", ".join(f"{p}/a={a:g}: {s:.3f}" for (_, p, a), s in slopes.items())
    report("2 temporal order ei2 (slope in [1.85, 2.15])", ok, detail)


@pytest.fixture(scope="module")
def bound_trajectories(potentials):
    """Diagnostics of random-init runs to t=50 for both schemes/potentials
    and tau in {0.01, 0.1, 1.0}; shared by criteria 3 and 4."""
    grid = Grid(M)
    out = {}
    for pname, pot in potentials.items():
        u0 = init_random(grid, -0.8, 0.8, seed=2024)
        e0 = total_energy(grid, pot, u0, EPS)
        for scheme in ("ei1", "ei2"):
            for tau in (0.01, 0.1, 1.0):
                cfg = RunConfig(grid=grid,
                                scheme=SchemeConfig(eps=EPS, kappa=pot.lipschitz,
                                                    potential=pot,
                                                    sigma=ExpSigma(1.0),
                                                    scheme=scheme),
                                stepping=UniformStepping(tau), t_end=50.0)
                _, rows = run(u0, cfg)
                out[(pname, scheme, tau)] = (pot.beta, e0, rows)
    return out


def test_criterion_3_maximum_bound_principle(bound_trajectories):
    worst = -np.inf
    for (pname, scheme, tau), (beta, _, rows) in bound_trajectories.items():
        excess = max(r.sup_norm for r in rows) - beta
        worst = max(worst, excess)
    report("3 MBP unconditional (sup norm <= beta + 1e-12)",
           worst <= MBP_TOL, f"worst excess over all runs = {worst:.3e}")


def test_criterion_4_modified_energy_dissipation(bound_trajectories):
    worst_rise = -np.inf
    worst_s = -np.inf
    for (pname, scheme, tau), (_, e0, rows) in bound_trajectories.items():
        energies = [r.modified_energy for r in rows]
        rises = [b - a for a, b in zip(energies, energies[1:])]
        worst_rise = max(worst_rise, max(rises))
        worst_s = max(worst_s, max(r.s for r in rows) - e0)
    ok = worst_rise <= ENERGY_TOL and worst_s <= ENERGY_TOL
    report("4 modified-energy decay and s <= E(u0)", ok,
           f"worst energy rise = {worst_rise:.3e}, worst s excess = {worst_s:.3e}")


def report_suite(criterion: str, profile: str):
    """Run one verify profile; print each check's detail, then the verdict."""
    suite = verify_suite((profile,))
    for check in suite["checks"]:
        print(f"    {check['name']}: {check['detail']}")
    report(criterion, suite["passed"],
           f"{len(suite['checks'])} checks, failed: "
           f"{[f['name'] for f in suite['failures']]}")


def test_criterion_5_kernel_oracle_equivalence():
    report_suite("5 spectral vs dense kernel oracles, summation by parts", "oracles")


def test_criterion_6_lemma_suite():
    report_suite("6 lemma suite (stabilization, contraction, phi1 bounds)", "lemmas")


def test_criterion_7_adaptive_time_stepping():
    grid = Grid(M, boundary="neumann")
    pot = FloryHuggins()
    scfg = SchemeConfig(eps=EPS, kappa=pot.lipschitz, potential=pot,
                        sigma=ExpSigma(1.0), scheme="ei2")
    stepping = AdaptiveStepping(tau_min=0.0001, tau_max=0.1, alpha=1e5)
    t_end = 200.0
    cfg = RunConfig(grid=grid, scheme=scfg, stepping=stepping, t_end=t_end,
                    check_invariants=True)  # enforces MBP/energy decay per step
    u0 = init_random(grid, -0.8, 0.8, seed=2024)
    state, rows = run(u0, cfg)

    taus_ok = all(stepping.tau_min * (1 - 1e-12) <= r.tau <= stepping.tau_max
                  for r in rows[1:])
    e0 = total_energy(grid, pot, u0, EPS)
    s_ok = all(r.s <= e0 + ENERGY_TOL for r in rows)
    # the uniform tau=0.01 run over the same horizon takes exactly t_end/tau steps
    uniform_steps = round(t_end / 0.01)
    count_ok = state.step * 3 <= uniform_steps
    report("7 adaptive stepping (tau range, invariants, >=3x fewer steps)",
           taus_ok and s_ok and count_ok,
           f"adaptive steps = {state.step}, uniform steps = {uniform_steps}")


def test_criterion_8_constant_sigma_degeneracy():
    grid = Grid(M)
    pot = DoubleWell()
    cfg = RunConfig(grid=grid,
                    scheme=SchemeConfig(eps=EPS, kappa=pot.lipschitz,
                                        potential=pot, sigma=ConstantSigma(),
                                        scheme="ei1"),
                    stepping=UniformStepping(0.01), t_end=1.0)
    _, rows = run(init_random(grid, -0.8, 0.8, seed=5), cfg)
    ok = all(r.g == 1.0 for r in rows) and all(
        r.render().split(",")[-1] == "1" for r in rows)
    report("8 constant-sigma degeneracy (g bitwise 1.0 in every row)", ok,
           f"{len(rows)} rows checked")


def test_criterion_9_pure_state_fixed_points():
    grid = Grid(M)
    pot = DoubleWell()
    worst = 0.0
    for scheme in ("ei1", "ei2", "stab1"):
        for tau in (0.01, 1.0):
            cfg = SchemeConfig(eps=EPS, kappa=pot.lipschitz, potential=pot,
                               sigma=ExpSigma(1.0), scheme=scheme)
            state = initial_state(grid, cfg, np.ones((M, M)))
            for _ in range(5):
                state = step(grid, cfg, state, tau)
            worst = max(worst, float(np.max(np.abs(state.u - 1.0))), abs(state.s))
    report("9 pure-state fixed point under ei1/ei2/stab1", worst <= 1e-13,
           f"worst deviation = {worst:.3e}")
