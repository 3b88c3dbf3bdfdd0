"""Command-line interface: run trajectories, convergence studies, and the
verification suites.

Exit codes: 0 success, 1 usage error (a problem too large for the
available memory included), 2 numeric failure, 3 verification failure.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import AcflowError
from .grid import BOUNDARIES, Grid
from .harness import RunConfig, converge, init_random, init_sine, run
from .potentials import POTENTIALS, SIGMAS, make_potential, make_sigma
from .schemes import SCHEMES, SchemeConfig
from .timestep import AdaptiveStepping, UniformStepping
from .verify import PROFILES, verify_suite

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2
EXIT_VERIFY = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_setup(p: argparse.ArgumentParser):
    """Flags that fix the problem: grid, potential, scheme, horizon, u0."""
    p.add_argument("--grid-m", type=int, default=128)
    p.add_argument("--grid-l", type=float, default=1.0)
    p.add_argument("--boundary", choices=BOUNDARIES, default="periodic")
    p.add_argument("--potential", choices=POTENTIALS, default="double-well")
    p.add_argument("--theta", type=float, default=0.8)
    p.add_argument("--theta-c", type=float, default=1.6)
    p.add_argument("--sigma", choices=SIGMAS, default="exp")
    p.add_argument("--sigma-a", type=float, default=1.0,
                   help="rate a of exp; keep a*|E(u0)| of order 1 or less")
    p.add_argument("--scheme", choices=SCHEMES, default="ei2")
    p.add_argument("--eps", type=float, default=0.01)
    p.add_argument("--kappa", type=float, default=None,
                   help="stabilizing constant; defaults to the Lipschitz bound; "
                        "far above it (~1e23) ei2 loses energy decay to roundoff "
                        "and the run fails")
    p.add_argument("--t-end", type=float, default=1.0)
    p.add_argument("--init", choices=["sine", "random"], default="sine")
    p.add_argument("--amplitude", type=float, default=0.1)
    p.add_argument("--lo", type=float, default=-0.8)
    p.add_argument("--hi", type=float, default=0.8)
    p.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="acflow",
                     description="Structure-preserving exponential integrators "
                                 "for Allen-Cahn type gradient flows")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="integrate one trajectory")
    _add_setup(p_run)
    p_run.add_argument("--tau", type=float, default=0.01)
    p_run.add_argument("--adaptive", action="store_true")
    p_run.add_argument("--tau-min", type=float, default=0.0001)
    p_run.add_argument("--tau-max", type=float, default=0.1)
    p_run.add_argument("--alpha", type=float, default=1e5)
    p_run.add_argument("--out", type=str, default=None)
    p_run.add_argument("--snapshot-every", type=int, default=0)
    p_run.add_argument("--check-invariants", action="store_true",
                       help="check energy decay and s <= E(u0) to 1e-10, not "
                            "1e-10*max(1, |E(u0)|); MBP is checked in every run")

    p_conv = sub.add_parser("converge", help="temporal convergence sweep")
    _add_setup(p_conv)
    p_conv.add_argument("--taus", type=str, required=True,
                        help="comma-separated list of step sizes")
    p_conv.add_argument("--tau-ref", type=float, required=True)

    p_ver = sub.add_parser("verify", help="run the verification suites")
    p_ver.add_argument("--profile", nargs="*", choices=PROFILES, default=PROFILES)
    p_ver.add_argument("--seed", type=int, default=20240817)
    p_ver.add_argument("--kappa", type=float, default=None,
                       help="invariants-profile kappa; defaults to the Lipschitz bound")
    return parser


def _build_setup(args):
    grid = Grid(args.grid_m, args.grid_l, args.boundary)
    potential = make_potential(args.potential, args.theta, args.theta_c)
    sigma = make_sigma(args.sigma, args.sigma_a)
    kappa = args.kappa if args.kappa is not None else potential.lipschitz
    scfg = SchemeConfig(eps=args.eps, kappa=kappa, potential=potential,
                        sigma=sigma, scheme=args.scheme)
    if args.init == "sine":
        u0 = init_sine(grid, args.amplitude)
    else:
        u0 = init_random(grid, args.lo, args.hi, args.seed)
    return grid, scfg, u0


def _cmd_run(args) -> int:
    grid, scfg, u0 = _build_setup(args)
    if args.adaptive:
        stepping = AdaptiveStepping(args.tau_min, args.tau_max, args.alpha)
    else:
        stepping = UniformStepping(args.tau)
    cfg = RunConfig(grid=grid, scheme=scfg, stepping=stepping, t_end=args.t_end,
                    out_dir=args.out, snapshot_every=args.snapshot_every,
                    check_invariants=args.check_invariants)
    state, rows = run(u0, cfg)
    last = rows[-1]
    print(f"finished: steps={state.step} t={state.t:.6g} "
          f"sup_norm={last.sup_norm:.6g} energy={last.energy:.6g} "
          f"modified_energy={last.modified_energy:.6g}")
    return EXIT_OK


def _cmd_converge(args) -> int:
    grid, scfg, u0 = _build_setup(args)
    taus = [float(t) for t in args.taus.split(",") if t.strip()]
    report = converge(grid, scfg, u0, args.t_end, taus, args.tau_ref)
    print("tau,l2_error,linf_error")
    for e in report["entries"]:
        print(f"{e['tau']:.17g},{e['l2_error']:.17g},{e['linf_error']:.17g}")
    print(f"slope,{report['slope']:.6g}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    report = verify_suite(tuple(args.profile), seed=args.seed, kappa=args.kappa)
    print(json.dumps(report, indent=2))
    return EXIT_OK if report["passed"] else EXIT_VERIFY


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "converge":
            return _cmd_converge(args)
        return _cmd_verify(args)
    except AcflowError as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:
        print(f"usage error: not enough memory for acflow {' '.join(argv)}: "
              f"{str(exc) or 'allocation failed'}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
