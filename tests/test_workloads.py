"""The benchmark's workloads run on the current API: each one's set-up,
timed operation and checks at smoke size, with the default seed.

``benchmarks/run.py`` calls only these four parts of a workload, so a change
to a constructor or function they use shows here, not only in a full
benchmark run.  The pinned values are not compared here.
"""

import math
import os
import sys

import pytest

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))), "benchmarks"))
import workloads  # noqa: E402


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_clean_at_smoke_size(name, tmp_path):
    wl = workloads.WORKLOADS[name](smoke=True, scratch=str(tmp_path))
    ctx = wl.setup(workloads.DEFAULT_SEED)
    scratch = wl.prepare(ctx)
    res = wl.check(ctx, scratch, wl.op(ctx, scratch))
    assert res.failures == []
    assert res.steps > 0


def test_tracer_installs_and_restores_the_package():
    # tracing.TARGETS names acflow's classes and functions when it is
    # imported, so a renamed or removed class fails the import here.
    import tracing
    from acflow import harness, schemes

    step, run = schemes.step, harness.run
    with tracing.Tracer().installed():
        assert schemes.step is not step and harness.run is not run
    assert schemes.step is step and harness.run is run


# Targets that tracing.TARGETS names but the package no longer has (ROADMAP
# item 1).  A change to the benchmark may shrink this set; renaming or
# removing any other wrapped name fails here.
ABSENT_TARGETS = {
    "Grid.gradient", "Grid.integrate", "StabilizedOperator.advance",
    "StabilizedOperator.solve_shifted", "DoubleWell.F", "FloryHuggins.F",
    "ExpSigma.ratio", "acflow.harness.total_energy",
    "acflow.harness.modified_energy", "acflow.schemes.step_ei2",
}


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_smoke_operation_gives_every_metric(name, tmp_path):
    # One traced operation through the wrappers and tag functions, then the
    # metrics run.py --trace 1 reports, so a changed signature fails here.
    import tracing

    wl = workloads.WORKLOADS[name](smoke=True, scratch=str(tmp_path))
    ctx = wl.setup(workloads.DEFAULT_SEED)
    scratch = wl.prepare(ctx)
    tracer = tracing.Tracer()
    with tracer.op():
        wl.op(ctx, scratch)
    assert set(tracer.missing) <= ABSENT_TARGETS
    metrics = tracing.layer_metrics(tracer)
    assert set(tracing.SELF_GROUPS) | set(tracing.PER_STEP_COUNTS) <= set(metrics)
    assert all(math.isfinite(value) for value in metrics.values())
    counts = tracing.scheme_transform_counts(tracer)
    assert counts and all(value > 0 for value in counts.values())
