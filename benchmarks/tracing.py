"""In-memory span tracing of acflow's public functions, installed from outside.

``Tracer.installed()`` replaces each function listed in ``TARGETS`` with a
timing wrapper for the duration of a ``with`` block and restores the
originals on exit, so untraced runs execute the unmodified package.  Each
call records one span ``[name, start, end, parent, tag]``; ``layer_metrics``
turns the spans of the traced operations into per-layer self times and exact
per-step call counts.

Modules import each other's functions by name, so a wrapper must sit where
the caller looks the name up: ``acflow.harness.step`` for the run loop,
``acflow.schemes.step_ei2`` for ``reference_solution``, and so on.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import statistics
from time import perf_counter

from acflow import expkernel, grid, harness, potentials, schemes, timestep

STEP = "schemes.step"
RUN = "harness.run"
DIAGNOSTICS = ("potentials.total_energy", "potentials.modified_energy",
               "grid.norm_inf")
IO = ("harness.write_diagnostics", "harness.write_snapshot")
TRANSFORMS = ("grid.fast_forward", "grid.fast_inverse")


def _scheme_of_cfg(args, result):
    return args[1].scheme


def _ei2(args, result):
    return "ei2"


def _transform_bytes(args, result):
    return args[1].nbytes + result.nbytes


# (owner, attribute defined on it, span name, tag function or None); the
# workloads use only the DoubleWell / FloryHuggins potentials and ExpSigma.
TARGETS = [
    (grid.Grid, "fast_forward", "grid.fast_forward", _transform_bytes),
    (grid.Grid, "fast_inverse", "grid.fast_inverse", _transform_bytes),
    (grid.Grid, "gradient", "grid.gradient", None),
    (grid.Grid, "grad_norm2_sq", "grid.grad_norm2_sq", None),
    (grid.Grid, "integrate", "grid.integrate", None),
    (grid.Grid, "inner", "grid.inner", None),
    (grid.Grid, "norm2", "grid.norm2", None),
    (grid.Grid, "norm_inf", "grid.norm_inf", None),
    (expkernel, "phi1", "expkernel.phi1", None),
    (expkernel.StabilizedOperator, "__init__", "expkernel.operator_init", None),
    (expkernel.StabilizedOperator, "advance", "expkernel.advance", None),
    (expkernel.StabilizedOperator, "solve_shifted", "expkernel.solve_shifted", None),
    (potentials.DoubleWell, "f", "potentials.f", None),
    (potentials.DoubleWell, "F", "potentials.F", None),
    (potentials.FloryHuggins, "f", "potentials.f", None),
    (potentials.FloryHuggins, "F", "potentials.F", None),
    (potentials.ExpSigma, "ratio", "potentials.sigma_ratio", None),
    (potentials, "bulk_energy", "potentials.bulk_energy", None),
    (schemes, "bulk_energy", "potentials.bulk_energy", None),
    (harness, "total_energy", "potentials.total_energy", None),
    (harness, "modified_energy", "potentials.modified_energy", None),
    (schemes, "step", STEP, _scheme_of_cfg),
    (harness, "step", STEP, _scheme_of_cfg),
    (schemes, "step_ei2", STEP, _ei2),
    (schemes, "reference_solution", "schemes.reference_solution", None),
    (timestep.AdaptiveStepping, "next_tau", "timestep.next_tau", None),
    (harness, "run", RUN, None),
    (harness, "write_diagnostics", "harness.write_diagnostics", None),
    (harness, "_write_snapshot", "harness.write_snapshot", None),
]

# Every span name belongs to exactly one self-time group, so the group self
# times plus the time no span covers add up to the traced wall time.
SELF_GROUPS = {
    "grid.transform.self_s": TRANSFORMS,
    "grid.stencil.self_s": ("grid.gradient", "grid.grad_norm2_sq"),
    "grid.reduce.self_s": ("grid.integrate", "grid.inner", "grid.norm2",
                           "grid.norm_inf"),
    "expkernel.phi1.self_s": ("expkernel.phi1",),
    "expkernel.operator.self_s": ("expkernel.operator_init",
                                  "expkernel.solve_shifted"),
    "expkernel.advance.self_s": ("expkernel.advance",),
    "potentials.f.self_s": ("potentials.f",),
    "potentials.F.self_s": ("potentials.F",),
    "potentials.sigma.self_s": ("potentials.sigma_ratio",),
    "potentials.energy.self_s": ("potentials.bulk_energy",
                                 "potentials.total_energy",
                                 "potentials.modified_energy"),
    "schemes.step.self_s": (STEP,),
    "schemes.reference.self_s": ("schemes.reference_solution",),
    "timestep.next_tau.self_s": ("timestep.next_tau",),
    "harness.run.self_s": (RUN,),
    "harness.io.s": IO,
}

# Exact counts of the outermost calls into a group made by a step: inside a
# step span, or in the diagnostics row ``run`` makes after each step.
PER_STEP_COUNTS = {
    "grid.transform.per_step": TRANSFORMS,
    "grid.stencil.per_step": ("grid.gradient", "grid.grad_norm2_sq"),
    "expkernel.phi1.per_step": ("expkernel.phi1",),
    "expkernel.operator.per_step": ("expkernel.operator_init",),
    "potentials.f.per_step": ("potentials.f",),
    "potentials.F.per_step": ("potentials.F",),
}

_NAME_TO_GROUP = {name: group for group, names in SELF_GROUPS.items()
                  for name in names}


class Tracer:
    """Collects spans while installed; ``ops`` marks each traced operation."""

    def __init__(self):
        self.spans: list[list] = []
        self.ops: list[tuple[float, float, int, int]] = []  # start, end, first, stop
        self._stack: list[int] = []
        self.missing: list[str] = []

    def _wrap(self, fn, name, tag):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            span = [name, perf_counter(), 0.0, stack[-1] if stack else -1, None]
            spans.append(span)
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if tag is not None:
                span[4] = tag(args, result)
            return result

        return wrapper

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target that exists; a renamed or removed one is
        listed in ``missing`` and its spans simply do not occur."""
        saved = []
        self.missing = []
        try:
            for owner, attr, name, tag in TARGETS:
                original = vars(owner).get(attr)
                if original is None:
                    self.missing.append(f"{owner.__name__}.{attr}")
                    continue
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(original, name, tag))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    @contextlib.contextmanager
    def op(self):
        """Trace one timed operation and record its bounds, failed or not."""
        first = len(self.spans)
        with self.installed():
            start = perf_counter()
            try:
                yield
            finally:
                self.ops.append((start, perf_counter(), first, len(self.spans)))

    def write(self, path: str):
        with gzip.open(path, "wt") as fh:
            fh.write("op,name,start,end,parent,tag\n")
            for k, (_, _, first, stop) in enumerate(self.ops):
                for name, start, end, parent, tag in self.spans[first:stop]:
                    tag = "" if tag is None else tag
                    fh.write(f"{k},{name},{start:.9f},{end:.9f},{parent},{tag}\n")


def _phases(spans, first, stop):
    """True for spans made by a step (see PER_STEP_COUNTS), by index."""
    in_step = {}
    run_stepped = set()
    for i in range(first, stop):
        name, _, _, parent, _ = spans[i]
        if name == STEP:
            in_step[i] = True
            if parent >= 0 and spans[parent][0] == RUN:
                run_stepped.add(parent)
        elif parent >= 0:
            in_step[i] = in_step[parent] or parent in run_stepped
        else:
            in_step[i] = False
    return in_step


def scheme_transform_counts(tracer: Tracer) -> dict[str, float]:
    """Transforms per step for each scheme, from the step spans' tags."""
    steps: dict[str, int] = {}
    transforms: dict[str, int] = {}
    spans = tracer.spans
    for _, _, first, stop in tracer.ops:
        owner = {}
        for i in range(first, stop):
            name, _, _, parent, tag = spans[i]
            if name == STEP:
                owner[i] = tag
                steps[tag] = steps.get(tag, 0) + 1
            elif parent >= 0 and parent in owner:
                owner[i] = owner[parent]
                if name in TRANSFORMS:
                    transforms[owner[i]] = transforms.get(owner[i], 0) + 1
    return {s: transforms.get(s, 0) / n for s, n in sorted(steps.items())}


def call_counts(tracer: Tracer, names) -> dict[str, int]:
    """Calls to any of ``names``, split into start-up calls (outside any
    step) and step calls, summed over the traced operations."""
    counts = {"startup": 0, "step": 0}
    for _, _, first, stop in tracer.ops:
        phase = _phases(tracer.spans, first, stop)
        for i in range(first, stop):
            if tracer.spans[i][0] in names:
                counts["step" if phase[i] else "startup"] += 1
    return counts


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics averaged over the traced operations."""
    spans = tracer.spans
    n_ops = len(tracer.ops)
    self_time = dict.fromkeys(SELF_GROUPS, 0.0)
    per_step = dict.fromkeys(PER_STEP_COUNTS, 0)
    count_group = {name: metric for metric, names in PER_STEP_COUNTS.items()
                   for name in names}
    step_ms = []
    transform_bytes = 0
    diagnostics_s = 0.0
    wall = 0.0
    covered = 0.0
    for start, end, first, stop in tracer.ops:
        wall += end - start
        phase = _phases(spans, first, stop)
        child = dict.fromkeys(range(first, stop), 0.0)
        for i in range(first, stop):
            name, t0, t1, parent, tag = spans[i]
            dur = t1 - t0
            if parent >= 0:
                child[parent] += dur
                pname = spans[parent][0]
            else:
                covered += dur
                pname = None
            if name == STEP:
                step_ms.append(1e3 * dur)
            elif name in TRANSFORMS:
                transform_bytes += tag or 0  # None if the transform raised
            if pname == RUN and name in DIAGNOSTICS:
                diagnostics_s += dur
            metric = count_group.get(name)
            if metric and phase[i] and count_group.get(pname) != metric:
                per_step[metric] += 1
        for i in range(first, stop):
            self_time[_NAME_TO_GROUP[spans[i][0]]] += spans[i][2] - spans[i][1] - child[i]
    n_steps = len(step_ms)
    out = {k: v / n_ops for k, v in self_time.items()}
    out.update({k: v / n_steps for k, v in per_step.items()})
    quantiles = statistics.quantiles(step_ms, n=20)
    out.update({
        "grid.transform.mb_computed": transform_bytes / 1e6 / n_steps,
        "schemes.step.calls": n_steps / n_ops,
        "schemes.step.samples": n_steps,
        "schemes.step.p50_ms": quantiles[9],
        "schemes.step.p95_ms": quantiles[18],
        "harness.diagnostics.s": diagnostics_s / n_ops,
        "trace.wall_s": wall / n_ops,
        "trace.unattributed_s": (wall - covered) / n_ops,
    })
    return out
