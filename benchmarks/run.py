"""Benchmark acflow end to end (untraced) or layer by layer (traced).

    python3 benchmarks/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; acflow is imported from ``src/``.
The run sets up the workload several times (median ``setup_s``), then
repeats the timed operation as often as fits in ``--seconds`` seconds, and
at least twice (median ``wall_s``), checking every operation's output.  A
fixed calibration kernel runs around the set-ups and between operations;
every reported time is divided by the slowdown it measured, which gives
seconds at the reference speed of ``calibrate.py``.  ``--trace 1`` instead
reports per-layer metrics, in measured seconds, from operations run with
timing wrappers installed, alternated with untraced ones to measure the
tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import sys
from time import perf_counter

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")

MIN_OPS = 2
SETUP_MIN_REPS = 5
SETUP_MAX_REPS = 200
SETUP_SECONDS = 1.0
TRACE_MIN_STEPS = 200  # so at least 10 step samples lie beyond p95

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "mcell_steps_per_s": "Mcell/s",
    "peak_rss_mb": "MB",
    "ok_frac": "frac",
}
PER_LAYER_UNITS = {
    "per_step": "count",
    "calls": "count",
    "samples": "count",
    "self_s": "s",
    "s": "s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "mb_computed": "MB/step",
    "mb": "MB",
    "unattributed_s": "s",
    "wall_s": "s",
    "overhead": "frac",
    "drift_rel": "frac",
    "order_dev": "slope",
}


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read().strip()
    except OSError:
        return "unknown"


def _git_commit() -> str:
    head = _read(os.path.join(ROOT, ".git", "HEAD"))
    if head.startswith("ref: "):
        return _read(os.path.join(ROOT, ".git", head[5:]))
    return head if head != "unknown" else "unknown (not a git checkout)"


def environment(field_bytes: int) -> dict:
    import numpy
    import scipy

    cpu_model = "unknown"
    for line in _read("/proc/cpuinfo").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    cache = "/sys/devices/system/cpu/cpu0/cache"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model,
        "l2_cache": _read(f"{cache}/index2/size"),
        "l3_cache": _read(f"{cache}/index3/size"),
        "field_bytes": field_bytes,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": _git_commit(),
        "threads": {k: os.environ[k] for k in THREAD_VARS},
    }


def timed_setups(wl, seed: int, calib):
    """Set the workload up repeatedly; return the last context, the times,
    and the machine's slowdown around them."""
    before = calib.slowdown()
    times = []
    start = perf_counter()
    while len(times) < SETUP_MAX_REPS and (
            len(times) < SETUP_MIN_REPS or perf_counter() - start < SETUP_SECONDS):
        t0 = perf_counter()
        ctx = wl.setup(seed)
        times.append(perf_counter() - t0)
    return ctx, times, 0.5 * (before + calib.slowdown())


def run_op(wl, ctx, tracer=None):
    """One timed operation and its checks; returns (wall seconds, OpResult)."""
    scratch = wl.prepare(ctx)
    if tracer is None:
        t0 = perf_counter()
        raw = wl.op(ctx, scratch)
        wall = perf_counter() - t0
    else:
        with tracer.op():
            raw = wl.op(ctx, scratch)
        start, end, _, _ = tracer.ops[-1]
        wall = end - start
    return wall, wl.check(ctx, scratch, raw)


def _more(done: list[float], start: float, seconds: float) -> bool:
    """Whether another operation of the mean length so far fits the budget."""
    if len(done) < MIN_OPS:
        return True
    return perf_counter() - start + statistics.fmean(done) <= seconds


def measure_untraced(wl, ctx, seconds: float, cells: int, calib):
    """Operations with the calibration kernel before and after each; every
    time is divided by the mean slowdown measured around it."""
    walls, slowdowns, results = [], [calib.slowdown()], []
    start = perf_counter()
    while _more(walls, start, seconds):
        wall, res = run_op(wl, ctx)
        walls.append(wall)
        results.append(res)
        slowdowns.append(calib.slowdown())
    ref_walls = [w / (0.5 * (a + b)) for w, a, b in zip(walls, slowdowns, slowdowns[1:])]
    metrics = {
        "wall_s": statistics.median(ref_walls),
        "mcell_steps_per_s": statistics.median(
            cells * r.steps / w / 1e6 for w, r in zip(ref_walls, results)),
    }
    return metrics, {"walls_s": walls, "slowdowns": slowdowns}, results


def measure_traced(wl, ctx, seconds: float, seed: int, smoke: bool):
    import tracing
    import workloads

    results = []
    # Drift against the pinned default-seed values, from an untraced run.
    drift_ctx = ctx if seed == workloads.DEFAULT_SEED else wl.setup(workloads.DEFAULT_SEED)
    _, drift_res = run_op(wl, drift_ctx)
    results.append(drift_res)
    drift = workloads.drift_rel(drift_res.summary, workloads.pinned(wl.name, smoke))

    # Alternate untraced and traced operations so both see the same machine.
    tracer = tracing.Tracer()
    plain, traced, traced_results = [], [], []
    start = perf_counter()
    while (_more([p + t for p, t in zip(plain, traced)], start, seconds)
           or sum(r.steps for r in traced_results) < TRACE_MIN_STEPS):
        wall, res = run_op(wl, ctx)
        plain.append(wall)
        results.append(res)
        wall, res = run_op(wl, ctx, tracer)
        traced.append(wall)
        traced_results.append(res)
        results.append(res)
    metrics = tracing.layer_metrics(tracer)
    metrics.update({
        "harness.io.mb": statistics.fmean(r.io_bytes for r in traced_results) / 1e6,
        "trace.overhead": statistics.median(t / p for t, p in zip(traced, plain)) - 1.0,
        "check.drift_rel": drift,
        "check.order_dev": max(r.order_dev for r in results),
    })
    if tracer.missing:
        print("absent, so not traced: " + ", ".join(tracer.missing))
    os.makedirs(OUT_DIR, exist_ok=True)
    tracer.write(os.path.join(OUT_DIR, f"spans-{wl.name}-seed{seed}.csv.gz"))
    return metrics, tracing.scheme_transform_counts(tracer), results


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("sweep", "adaptive", "large"))
    parser.add_argument("--seed", type=int, default=2024)  # workloads.DEFAULT_SEED
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grids and few steps, for the benchmark's own tests")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "acflow", "__init__.py")):
        print(f"error: no acflow sources under {os.path.join(ROOT, 'src')}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:  # before numpy is imported
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    import calibrate
    import workloads

    wl = workloads.WORKLOADS[args.workload](smoke=args.smoke, scratch=OUT_DIR)
    cells = wl.m * wl.m
    calib = calibrate.Calibration(wl.m, wl.neumann)
    calib.slowdown()  # warm up the kernel's own caches
    ctx, setups, setup_slowdown = timed_setups(wl, args.seed, calib)
    env = environment(8 * cells)
    print("env " + json.dumps(env))

    raw = {"setups_s": setups, "setup_slowdown": setup_slowdown}
    if args.trace:
        metrics, scheme_counts, results = measure_traced(
            wl, ctx, args.seconds, args.seed, args.smoke)
        print("transforms per step by scheme " + json.dumps(scheme_counts))
        units = {k: PER_LAYER_UNITS[k.rsplit(".", 1)[1]] for k in metrics}
    else:
        metrics, op_times, results = measure_untraced(wl, ctx, args.seconds, cells, calib)
        raw.update(op_times)
        metrics["setup_s"] = statistics.median(setups) / setup_slowdown
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
        units = END_TO_END
        print(f"measured: median operation {statistics.median(raw['walls_s']):.6g} s, "
              f"median set-up {statistics.median(setups):.6g} s, machine slowdown "
              f"{min(raw['slowdowns']):.3g}..{max(raw['slowdowns']):.3g}")

    attempted = sum(r.attempted for r in results)
    failed = sum(r.failed for r in results)
    if not args.trace:
        metrics["ok_frac"] = 1.0 - failed / attempted
    for res in results:
        for msg in res.failures:
            print(f"FAILED {args.workload}: {msg}")
    for name in sorted(metrics):
        print(f"{name:32s} {metrics[name]:>16.6g} {units[name]}")
    print(f"operations {len(results)}, order_dev {max(r.order_dev for r in results):.4g}, "
          f"fail_frac {failed / attempted:.4g}, setups {len(setups)}")

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in metrics},
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    record = dict(result, workload=args.workload, seed=args.seed, env=env, **raw,
                  failures=[m for r in results for m in r.failures])
    path = os.path.join(OUT_DIR, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
