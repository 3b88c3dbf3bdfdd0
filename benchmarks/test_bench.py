"""The benchmark's own tests: tiny-grid smoke runs of every workload.

Run from the repository root:

    python3 -m pytest benchmarks/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [os.path.join(ROOT, "src"), HERE]

import tracing  # noqa: E402
import workloads  # noqa: E402
from acflow import expkernel  # noqa: E402

WORKLOADS = ("sweep", "adaptive", "large")


def _spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--smoke", "--seconds", "0.2", *args],
        cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_printed(workload, trace):
    proc = _bench(ROOT, "--workload", workload, "--seed", "7", "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = _spec()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    for name in result["metrics"]:
        assert name in proc.stdout.split("\n", 1)[1]  # also in the readable table


def _traced(workload):
    wl = workloads.WORKLOADS[workload](smoke=True, scratch=os.path.join(HERE, "out"))
    ctx = wl.setup(workloads.DEFAULT_SEED)
    tracer = tracing.Tracer()
    for _ in range(2):
        scratch = wl.prepare(ctx)
        with tracer.op():
            raw = wl.op(ctx, scratch)
        assert not wl.check(ctx, scratch, raw).failures
    return tracer


def test_transforms_per_step_by_scheme():
    counts = tracing.scheme_transform_counts(_traced("sweep"))
    assert counts == {"ei1": 3.0, "ei2": 6.0, "stab1": 2.0}


@pytest.mark.parametrize("workload", ["adaptive", "large"])
def test_run_counts_per_ei2_step(workload):
    tracer = _traced(workload)
    m = tracing.layer_metrics(tracer)
    assert m["grid.transform.per_step"] == 6
    assert m["potentials.F.per_step"] == 3
    assert m["potentials.f.per_step"] == 2
    assert m["expkernel.phi1.per_step"] == 2
    assert m["grid.stencil.per_step"] == 2
    assert m["expkernel.operator.per_step"] == 2
    f_calls = tracing.call_counts(tracer, ("potentials.F",))
    assert f_calls["startup"] == 2 * len(tracer.ops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_self_times_add_up_to_traced_wall(workload):
    m = tracing.layer_metrics(_traced(workload))
    total = sum(m[k] for k in tracing.SELF_GROUPS) + m["trace.unattributed_s"]
    assert total == pytest.approx(m["trace.wall_s"], rel=1e-9)
    assert m["trace.unattributed_s"] >= 0


def test_every_span_name_has_one_group():
    names = [n for group in tracing.SELF_GROUPS.values() for n in group]
    assert len(names) == len(set(names))
    assert {t[2] for t in tracing.TARGETS} == set(names)


def test_wrappers_are_removed():
    before = [vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS]
    with tracing.Tracer().installed():
        assert expkernel.phi1 is not before[tracing.TARGETS.index(
            (expkernel, "phi1", "expkernel.phi1", None))]
    assert [vars(owner)[attr] for owner, attr, _, _ in tracing.TARGETS] == before


def test_default_seed_matches_pins():
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(smoke=True, scratch=os.path.join(HERE, "out"))
        ctx = wl.setup(workloads.DEFAULT_SEED)
        scratch = wl.prepare(ctx)
        res = wl.check(ctx, scratch, wl.op(ctx, scratch))
        assert workloads.drift_rel(res.summary, workloads.pinned(name, True)) <= 1e-12


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _bench(tmp_path, "--workload", "sweep", "--seed", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
