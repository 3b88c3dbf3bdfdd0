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
