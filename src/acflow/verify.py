"""Numerical verification suites for the provable structure of the schemes:
sampled lemma bounds, spectral-vs-dense oracle agreement, and trajectory
invariants (pointwise bound, modified-energy decay, auxiliary-variable bound).

Each sampled check is implemented once, here, as a function of the objects
it samples and a random generator; ``verify_suite`` runs it over a fixed set
of grids and potentials, and the unit tests run it on their own fixtures.
The oracles the spectral path is checked against live here too: the
five-point stencil and gradient, the dense Laplacian and the dense
exponentials, and the free-energy densities F, which no run forms.  They
use neither scipy.linalg nor the spectral path.
"""

from __future__ import annotations

from dataclasses import dataclass, asdict

import numpy as np

from .errors import AcflowError, whole
from .expkernel import StabilizedOperator, phi1
from .grid import BOUNDARIES, PERIODIC, Grid
from .harness import RunConfig, init_random, run
from .potentials import DoubleWell, ExpSigma, FloryHuggins, interface_energy
from .schemes import SCHEMES, SchemeConfig
from .timestep import UniformStepping

PROFILES = ("lemmas", "invariants", "oracles")


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str = ""

    def __post_init__(self):
        self.passed = bool(self.passed)  # numpy bools are not JSON serializable


def _grids(*sizes) -> list[Grid]:
    return [Grid(m, 1.0, b) for m in sizes for b in BOUNDARIES]


def _ghosts(grid: Grid, v: np.ndarray) -> np.ndarray:
    # One ghost layer: the periodic wrap, or the Neumann mirror, whose ghost
    # cell copies the adjacent interior cell.
    return np.pad(v, 1, mode="wrap" if grid.boundary == PERIODIC else "edge")


def laplacian(grid: Grid, v: np.ndarray) -> np.ndarray:
    """Five-point stencil (v_E + v_W + v_N + v_S - 4 v) / h^2. Oracle only."""
    p = _ghosts(grid, v)
    out = p[2:, 1:-1] + p[:-2, 1:-1] + p[1:-1, 2:] + p[1:-1, :-2] - 4.0 * v
    return out / (grid.h * grid.h)


def gradient(grid: Grid, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Forward differences; the Neumann ghost makes the last difference 0."""
    p = _ghosts(grid, v)
    return (p[2:, 1:-1] - v) / grid.h, (p[1:-1, 2:] - v) / grid.h


def density(pot, u):
    """Density F(u), f = -F', of a DoubleWell or FloryHuggins: a whole-field
    oracle, which no run forms.  A scalar u gives a NumPy scalar."""
    if isinstance(pot, DoubleWell):
        w = 1.0 - np.asarray(u) ** 2
        return 0.25 * w * w
    # (1+u) log1p(u) + (1-u) log1p(-u): the two terms swap under u -> -u, so
    # F(-u) == F(u) exactly.
    u = np.asarray(u, dtype=float)
    pot._check_domain(u)
    ent = np.log1p(u)
    ent *= 1.0 + u
    other = np.log1p(-u)
    other *= 1.0 - u
    ent += other
    ent *= 0.5 * pot.theta
    ent -= 0.5 * pot.theta_c * u**2
    return ent


def dense_laplacian(grid: Grid) -> np.ndarray:
    """Explicit (M^2, M^2) matrix of the five-point Laplacian, the Kronecker
    sum of the 1D second difference D: D (x) I + I (x) D. Oracle only."""
    if grid.m > 16:
        raise ValueError(f"dense Laplacian refused for M={grid.m} > 16")
    eye = np.eye(grid.m)
    d = np.eye(grid.m, k=1) + np.eye(grid.m, k=-1) - 2.0 * eye
    # The periodic wrap joins the two end cells; the mirror folds onto each.
    d[[0, -1], [-1, 0] if grid.boundary == PERIODIC else [0, -1]] += 1.0
    return (np.kron(d, eye) + np.kron(eye, d)) / (grid.h * grid.h)


def dense_expm(a: np.ndarray) -> np.ndarray:
    """Matrix exponential by scaling-and-squaring with a Taylor core.

    The argument is scaled by 2^-s until its 1-norm is below 1/2, a 20-term
    Taylor series is summed, and the result is squared s times.  Oracle-grade
    accuracy, not performance.
    """
    a = np.asarray(a, dtype=float)
    norm = np.linalg.norm(a, 1)
    s = max(0, int(np.ceil(np.log2(norm / 0.5)))) if norm > 0.5 else 0
    b = a / (2.0 ** s)
    n = a.shape[0]
    result = np.eye(n)
    term = np.eye(n)
    for k in range(1, 21):
        term = term @ b / k
        result = result + term
    for _ in range(s):
        result = result @ result
    return result


def dense_phi1m(a: np.ndarray) -> np.ndarray:
    """phi1(A) = A^{-1}(e^A - I) for invertible A. Oracle only."""
    a = np.asarray(a, dtype=float)
    return np.linalg.solve(a, dense_expm(a) - np.eye(a.shape[0]))


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
    """<v, Lap w> = -<grad v, grad w> = <Lap v, w> to 1e-12 relative, and
    the spectral interface energy equals (1/2) ||grad v||^2 to 1e-12
    relative; 100 random pairs per grid."""
    worst = 0.0
    for grid in grids:
        for _ in range(100):
            v = rng.standard_normal((grid.m, grid.m))
            w = rng.standard_normal((grid.m, grid.m))
            lhs = grid.inner(v, laplacian(grid, w))
            gv, gw = gradient(grid, v), gradient(grid, w)
            rhs = -(grid.inner(gv[0], gw[0]) + grid.inner(gv[1], gw[1]))
            sym = grid.inner(laplacian(grid, v), w)
            scale = max(1.0, abs(lhs))
            worst = max(worst, abs(lhs - rhs) / scale, abs(lhs - sym) / scale)
            grad_form = 0.5 * (grid.inner(gv[0], gv[0]) + grid.inner(gv[1], gv[1]))
            worst = max(worst, abs(interface_energy(grid, v, 1.0) / grad_form - 1.0))
    return CheckResult("summation-by-parts", worst <= 1e-12,
                       f"max relative defect = {worst:.3e}")


def exp_kernel_oracle(grids, rng) -> CheckResult:
    """StabilizedOperator.advance_spectral against the dense L = c I - eps^2
    Lap_h, 50 draws per grid, in relative L2: e^{-tau L} v to 1e-10,
    tau phi1(-tau L) n and their sum to 1e-9, and the resolvent step,
    (I + tau L)^{-1} (v + tau n) by a dense solve, to 1e-12."""
    worst = np.zeros(4)
    for grid in grids:
        eye, lap = np.eye(grid.m ** 2), dense_laplacian(grid)
        zero = np.zeros((grid.m, grid.m))
        for _ in range(50):
            c, eps2 = rng.uniform(0.1, 5.0), rng.uniform(1e-4, 0.05)
            op = StabilizedOperator(grid, c, eps2)
            tau = rng.uniform(1e-3, 1.0)
            v = rng.standard_normal(zero.shape)
            n = rng.standard_normal(zero.shape)
            neg = -tau * (c * eye - eps2 * lap)
            ref_exp = (dense_expm(neg) @ v.ravel()).reshape(v.shape)
            ref_phi = tau * (dense_phi1m(neg) @ n.ravel()).reshape(n.shape)
            ref_res = np.linalg.solve(eye - neg, (v + tau * n).ravel())
            cases = ((v, zero, False, ref_exp), (zero, n, False, ref_phi),
                     (v, n, False, ref_exp + ref_phi),
                     (v, n, True, ref_res.reshape(v.shape)))
            errs = []
            for a, b, resolvent, ref in cases:
                got = op.advance_spectral(tau, grid.fast_forward(a),
                                          grid.fast_forward(b), resolvent)[0]
                errs.append(grid.norm2(got - ref) / grid.norm2(ref))
            worst = np.maximum(worst, errs)
    passed = np.all(worst <= (1e-10, 1e-9, 1e-9, 1e-12))
    return CheckResult(
        "exp-kernel-oracle", passed,
        "max relative L2 error of advance_spectral vs dense: exp {:.3e}, phi1 "
        "{:.3e}, combined {:.3e}, resolvent {:.3e}".format(*worst))


def _trajectory_invariants(results, seed, kappa=None):
    for pot in (DoubleWell(), FloryHuggins()):
        k = pot.lipschitz if kappa is None else kappa
        name = f"trajectory-invariants[{pot.name}]"
        hypothesis = "" if k >= pot.lipschitz else (
            f" [hypothesis violated: kappa={k} < Lipschitz bound {pot.lipschitz}]")
        try:
            grid = Grid(32)
            for scheme in SCHEMES:
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
    seed = whole("seed", seed, 0)
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
