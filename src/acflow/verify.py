"""Numerical verification suites for the provable structure of the schemes:
sampled lemma bounds, spectral-vs-dense oracle agreement, and trajectory
invariants (pointwise bound, modified-energy decay, auxiliary-variable bound).

Each sampled check is implemented once, here, as a function of the objects
it samples and a random generator; ``verify_suite`` runs it over a fixed set
of grids and potentials, and the unit tests run it on their own fixtures.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import AcflowError
from .expkernel import StabilizedOperator, dense_expm, dense_phi1m, phi1
from .grid import Grid, dense_laplacian
from .harness import RunConfig, init_random, run
from .potentials import DoubleWell, ExpSigma, FloryHuggins
from .schemes import SchemeConfig
from .timestep import UniformStepping

PROFILES = ("lemmas", "invariants", "oracles")
BOUNDARIES = ("periodic", "neumann")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)  # numpy bools are not JSON serializable


def _grids(*sizes) -> list[Grid]:
    return [Grid(m, 1.0, b) for m in sizes for b in BOUNDARIES]


def stabilization_bound(pot, rng) -> CheckResult:
    """|f(x) + kappa x| <= kappa * beta on [-beta, beta] when kappa is the
    Lipschitz bound of f there; 10^4 uniform points plus the endpoints."""
    xs = np.append(rng.uniform(-pot.beta, pot.beta, 10_000), [-pot.beta, pot.beta])
    kappa = pot.lipschitz
    excess = float(np.max(np.abs(pot.f(xs) + kappa * xs)) - kappa * pot.beta)
    return CheckResult(f"stabilization-bound[{pot.name}]", excess <= 1e-12,
                       f"max |f(x)+kx| - k*beta = {excess:.3e}")


def semigroup_contraction(grids, rng) -> CheckResult:
    """||e^{a Lap - b I}||_inf <= e^{-b}; 50 draws of a in [0, 0.2] and
    b in [0, 5] per grid."""
    worst = -np.inf
    for grid in grids:
        lap = dense_laplacian(grid)
        for _ in range(50):
            a = rng.uniform(0.0, 0.2)
            b = rng.uniform(0.0, 5.0)
            mat = dense_expm(a * lap - b * np.eye(lap.shape[0]))
            norm = float(np.max(np.sum(np.abs(mat), axis=1)))
            worst = max(worst, norm - np.exp(-b))
    return CheckResult("semigroup-contraction", worst <= 1e-12,
                       f"max ||e^(a*Lap - b*I)||_inf - e^(-b) = {worst:.3e}")


def phi1_inequalities(rng) -> CheckResult:
    """0 < 1-e^{-a} < a, 0 < phi1(-a) < 1 and 1 < (1+a) phi1(-a) < 2."""
    a = rng.uniform(1e-12, 50.0, 10_000)
    em = 1.0 - np.exp(-a)
    p = phi1(-a)
    ok = (np.all((0 < em) & (em < a)) and np.all((0 < p) & (p < 1))
          and np.all((1 < (1 + a) * p) & ((1 + a) * p < 2)))
    return CheckResult("phi1-inequalities", ok,
                       "sampled a in (0, 50], 10^4 points")


def summation_by_parts(grids, rng) -> CheckResult:
    """<v, Lap w> = -<grad v, grad w> = <Lap v, w> to 1e-12 relative; 100
    random pairs per grid."""
    worst = 0.0
    for grid in grids:
        for _ in range(100):
            v = rng.standard_normal((grid.m, grid.m))
            w = rng.standard_normal((grid.m, grid.m))
            lhs = grid.inner(v, grid.laplacian(w))
            gv, gw = grid.gradient(v), grid.gradient(w)
            rhs = -(grid.inner(gv[0], gw[0]) + grid.inner(gv[1], gw[1]))
            sym = grid.inner(grid.laplacian(v), w)
            scale = max(1.0, abs(lhs))
            worst = max(worst, abs(lhs - rhs) / scale, abs(lhs - sym) / scale)
    return CheckResult("summation-by-parts", worst <= 1e-12,
                       f"max relative defect = {worst:.3e}")


def exp_kernel_oracle(grids, rng) -> CheckResult:
    """StabilizedOperator.advance against the dense oracles, 50 draws per
    grid: the exponential part to 1e-10, the phi1 part and their sum to 1e-9
    (relative L2)."""
    worst = np.zeros(3)
    for grid in grids:
        zero = np.zeros((grid.m, grid.m))
        for _ in range(50):
            op = StabilizedOperator(grid, rng.uniform(0.1, 5.0),
                                    rng.uniform(1e-4, 0.05))
            tau = rng.uniform(1e-3, 1.0)
            v = rng.standard_normal(zero.shape)
            n = rng.standard_normal(zero.shape)
            neg = -tau * op.dense_matrix()
            ref_exp = (dense_expm(neg) @ v.ravel()).reshape(v.shape)
            ref_phi = tau * (dense_phi1m(neg) @ n.ravel()).reshape(n.shape)
            pairs = ((op.advance(tau, v, zero), ref_exp),
                     (op.advance(tau, zero, n), ref_phi),
                     (op.advance(tau, v, n), ref_exp + ref_phi))
            errs = [grid.norm2(got - ref) / grid.norm2(ref) for got, ref in pairs]
            worst = np.maximum(worst, errs)
    passed = worst[0] <= 1e-10 and worst[1] <= 1e-9 and worst[2] <= 1e-9
    return CheckResult(
        "exp-kernel-oracle", passed,
        "max relative L2 error of advance vs dense: exp {:.3e}, phi1 {:.3e}, "
        "combined {:.3e}".format(*worst))


def _trajectory_invariants(results, seed, kappa=None):
    for pot in (DoubleWell(), FloryHuggins()):
        k = pot.lipschitz if kappa is None else kappa
        name = f"trajectory-invariants[{pot.name}]"
        hypothesis = "" if k >= pot.lipschitz else (
            f" [hypothesis violated: kappa={k} < Lipschitz bound {pot.lipschitz}]")
        try:
            grid = Grid(32)
            for scheme in ("ei1", "ei2"):
                for tau in (0.01, 0.1, 1.0):
                    scfg = SchemeConfig(eps=0.01, kappa=k, potential=pot,
                                        sigma=ExpSigma(1.0), scheme=scheme)
                    u0 = init_random(grid, -0.8, 0.8, seed)
                    cfg = RunConfig(grid=grid, scheme=scfg,
                                    stepping=UniformStepping(tau),
                                    t_end=max(2.0, 5 * tau),
                                    check_invariants=True)
                    run(u0, cfg)
            results.append(CheckResult(name, True, "MBP, energy decay, s-bound"))
        except AcflowError as exc:
            results.append(CheckResult(name, False, f"{exc}{hypothesis}"))


def verify_suite(profiles=PROFILES, seed: int = 20240817, kappa=None) -> dict:
    """Run the requested check profiles; returns a machine-readable report."""
    unknown = set(profiles) - set(PROFILES)
    if unknown:
        raise ValueError(f"unknown verify profiles: {sorted(unknown)}")
    results: list[CheckResult] = []
    rngs = [np.random.default_rng(seed + k) for k in range(5)]
    if "lemmas" in profiles:
        results += [stabilization_bound(pot, rngs[0])
                    for pot in (DoubleWell(), FloryHuggins())]
        results.append(semigroup_contraction(_grids(6, 8), rngs[1]))
        results.append(phi1_inequalities(rngs[2]))
    if "oracles" in profiles:
        results.append(summation_by_parts(_grids(10, 12), rngs[3]))
        results.append(exp_kernel_oracle(_grids(8), rngs[4]))
    if "invariants" in profiles:
        _trajectory_invariants(results, seed + 5, kappa=kappa)
    return {
        "passed": all(r.passed for r in results),
        "failures": [asdict(r) for r in results if not r.passed],
        "checks": [asdict(r) for r in results],
    }
