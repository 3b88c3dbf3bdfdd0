"""The benchmark's workloads run on the current API: each one's set-up,
timed operation and checks at smoke size, with the default seed.

``benchmarks/run.py`` calls only these four parts of a workload, so a change
to a constructor or function they use shows here, not only in a full
benchmark run.  The pinned values are not compared here.
"""

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
