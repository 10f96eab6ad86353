"""Layer spans recorded from outside the program.

:class:`Tracer` wraps the public functions of each layer and rebinds
their names in the modules that call them, so the program itself is
untouched: with the tracer uninstalled every name is the original
function again.  Each call of a wrapped function records one
:class:`Span` (name, start, end, parent span, operation id) in memory;
the spans are written out as Chrome trace-event JSON when the run ends.

A span's *self time* is its duration minus the part of it that its
child spans cover, so the self times of one operation's spans sum to the
operation's own span.  :data:`LAYERS` names the span each wrapped
function records; :func:`instrument` lists what is wrapped where.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import defaultdict
from dataclasses import dataclass, field

#: root span of one benchmark operation (recorded by the benchmark)
OP = "op"

#: span names, one per layer; per-layer metrics are these plus a unit
LAYERS = (
    "workloads.trace",
    "sim.program.compile",
    "network.fabric_build",
    "sim.baseline_replay",
    "sim.managed_replay",
    "power.accounting",
    "core.gt_select",
    "core.plan",
    "core.rebind",
    "experiments.run_cell",
    "cluster.cell",
    "cluster.shared_replay",
    "service.query",
)

#: spans whose self time is pipeline orchestration (the code between
#: the stages: run_cell, run_cluster_cell and the daemon's WarmPipeline)
ORCHESTRATION = ("experiments.run_cell", "cluster.cell", "service.query")

#: spans whose self time is spent replaying MPI calls
REPLAY = ("sim.baseline_replay", "sim.managed_replay", "cluster.shared_replay")


@dataclass(slots=True)
class Span:
    name: str
    start_ns: int
    end_ns: int
    parent: int | None
    op: int | None
    pid: int
    args: dict = field(default_factory=dict)

    @property
    def dur_ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    """Records spans around wrapped functions while installed.

    ``auto_op`` numbers operations itself: every outermost wrapped call
    starts a new operation id (used inside the daemon, where one
    ``WarmPipeline.query`` is one operation).  Otherwise the caller
    opens each operation with :meth:`op_span`.
    """

    def __init__(self, auto_op: bool = False):
        self.spans: list[Span] = []
        self.op: int | None = None
        self.auto_op = auto_op
        self._next_op = 0
        self._stack: list[int] = []
        self._wrapped: list[tuple[object, str, object, object]] = []
        self._pid = os.getpid()

    def add(self, owner, attr: str, name: str, count=None, before=None):
        """Wrap ``owner.attr`` (a module function or a class method).

        ``count(result, args, kwargs, token)`` returns the span's work
        counters; ``token`` is what ``before()`` returned at entry.
        """

        original = owner.__dict__[attr]
        tracer = self

        @functools.wraps(original)
        def traced(*args, **kwargs):
            token = before() if before is not None else None
            if tracer.auto_op and not tracer._stack:
                tracer.op = tracer._next_op
                tracer._next_op += 1
            span = tracer._open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                tracer._close(span)
            if count is not None:
                span.args = count(result, args, kwargs, token)
            return result

        self._wrapped.append((owner, attr, original, traced))

    def install(self) -> None:
        for owner, attr, _original, traced in self._wrapped:
            setattr(owner, attr, traced)

    def uninstall(self) -> None:
        for owner, attr, original, _traced in self._wrapped:
            setattr(owner, attr, original)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(name, time.perf_counter_ns(), 0, parent, self.op, self._pid)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end_ns = time.perf_counter_ns()
        self._stack.pop()

    @contextlib.contextmanager
    def op_span(self, op: int):
        """One operation: its root span, parent of every layer span."""

        self.op = op
        span = self._open(OP)
        try:
            yield span
        finally:
            self._close(span)
            self.op = None


# ---------------------------------------------------------------------------
# arithmetic


def self_times(spans: list[Span]) -> list[int]:
    """Self time (ns) of every span: its duration minus the union of its
    children's intervals, clipped to its own interval."""

    children: dict[int, list[Span]] = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append(span)
    out = []
    for i, span in enumerate(spans):
        covered = 0
        cursor = span.start_ns
        for child in sorted(children.get(i, ()), key=lambda c: c.start_ns):
            lo = max(child.start_ns, cursor)
            hi = min(child.end_ns, span.end_ns)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out.append(span.dur_ns - covered)
    return out


def per_op_self(spans: list[Span]) -> dict[int, dict[str, int]]:
    """``{op: {span name: self ns}}`` over the spans of each operation."""

    out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span, own in zip(spans, self_times(spans)):
        if span.op is not None:
            out[span.op][span.name] += own
    return out


def op_balance_errors(spans: list[Span], tolerance_ns: int = 1000) -> list[int]:
    """Operations whose span self times do not sum to their root span."""

    roots = {s.op: s.dur_ns for s in spans if s.name == OP and s.parent is None}
    bad = []
    for op, selfs in per_op_self(spans).items():
        if op in roots and abs(sum(selfs.values()) - roots[op]) > tolerance_ns:
            bad.append(op)
    return sorted(bad)


def per_op_counters(spans: list[Span]) -> dict[int, dict[str, int]]:
    """``{op: {counter: total}}`` summed over each operation's spans."""

    out: dict[int, dict[str, int]] = defaultdict(lambda: defaultdict(int))
    for span in spans:
        if span.op is None:
            continue
        for key, value in span.args.items():
            out[span.op][key] += value
    return {op: dict(counts) for op, counts in out.items()}


def graft(client: list[Span], daemon: list[Span]) -> list[Span]:
    """Join spans recorded in another process under the client's root
    span of the same operation id (both sides read CLOCK_MONOTONIC).
    Daemon spans of operations the client did not time are dropped."""

    roots = {s.op: i for i, s in enumerate(client) if s.name == OP}
    merged = list(client)
    index: dict[int, int] = {}
    for i, span in enumerate(daemon):
        if span.op not in roots:
            continue
        # a parent is opened, hence appended, before its children
        parent = roots[span.op] if span.parent is None else index[span.parent]
        index[i] = len(merged)
        merged.append(Span(span.name, span.start_ns, span.end_ns, parent,
                           span.op, span.pid, span.args))
    return merged


def chrome_trace(spans: list[Span]) -> dict:
    """Chrome trace-event JSON (load in Perfetto or chrome://tracing)."""

    return {
        "displayTimeUnit": "ms",
        "traceEvents": [
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": s.start_ns / 1000.0,
                "dur": s.dur_ns / 1000.0,
                "pid": s.pid,
                "tid": s.pid,
                "args": dict(s.args, op=s.op),
            }
            for s in spans
        ],
    }


def to_rows(spans: list[Span]) -> list[list]:
    return [[s.name, s.start_ns, s.end_ns, s.parent, s.op, s.pid, s.args]
            for s in spans]


def from_rows(rows: list[list]) -> list[Span]:
    return [Span(*row) for row in rows]


# ---------------------------------------------------------------------------
# what is wrapped


def replayed_calls(result) -> int:
    """MPI calls a replay executed: the length of every rank's event
    log (cluster results carry one set of logs per job)."""

    jobs = getattr(result, "jobs", None)
    if jobs is not None:
        return sum(len(log) for job in jobs for log in job.event_logs)
    return sum(len(log) for log in result.event_logs)


def _traffic(fabric) -> dict:
    return {"sim.messages": fabric.messages_sent,
            "sim.bytes": fabric.total_bytes_carried()}


def _count_baseline(result, args, kwargs, token) -> dict:
    return {"sim.mpi_calls": replayed_calls(result),
            "sim.messages": result.messages_sent,
            "sim.bytes": result.bytes_carried,
            "sim.helper_spawns": result.helper_spawns}


def _power(results) -> dict:
    return {
        "power.shutdowns": sum(r.total_shutdowns for r in results),
        "power.transitions_to_low": sum(
            r.power.total_transitions_to_low for r in results),
        "power.mispredictions": sum(r.total_mispredictions for r in results),
    }


def _count_managed(result, args, kwargs, token) -> dict:
    return dict(_traffic(kwargs["fabric"]), **_power([result]),
                **{"sim.mpi_calls": replayed_calls(result),
                   "sim.helper_spawns": result.helper_spawns})


def _count_cluster(result, args, kwargs, token) -> dict:
    out = dict(_traffic(kwargs["fabric"]),
               **{"sim.mpi_calls": replayed_calls(result),
                  "sim.helper_spawns": result.helper_spawns})
    if hasattr(result, "tenants"):  # the managed replay
        out.update(_power(result.jobs))
    return out


def _count_compile(result, args, kwargs, token) -> dict:
    return {"sim.program.instructions": result.total_instructions}


def _count_routes(result, args, kwargs, token) -> dict:
    return {"network.route_pairs": result}


def _count_rebind(result, args, kwargs, token) -> dict:
    return {"core.directives": sum(len(d) for d in result[0])}


def schedule_snapshot():
    from repro.sim.collectives import schedule_cache_stats

    return schedule_cache_stats()


def schedule_delta(token) -> dict:
    from repro.sim.collectives import schedule_cache_stats

    delta = schedule_cache_stats(since=token)
    return {"sim.collectives.schedule_hits": delta["hits"],
            "sim.collectives.schedule_misses": delta["misses"]}


def _count_query(result, args, kwargs, token) -> dict:
    out = schedule_delta(token)
    for stage in result[1]:
        out[f"service.stage_runs.{stage}"] = 1
    return out


def instrument(tracer: Tracer, *, service: bool = False) -> Tracer:
    """Register every layer wrapper on ``tracer`` (not yet installed).

    Names are rebound where they are looked up: ``run_cell``'s module
    (``experiments.common``), the cluster driver, the daemon's
    ``WarmPipeline`` module (``service.caches``) and the power
    accounting calls inside ``replay_managed`` (``sim.dimemas``).  With
    ``service`` the outermost span is ``WarmPipeline.query`` itself.
    """

    from repro.core.runtime import TracePlan
    from repro.experiments import cluster_sweep, common
    from repro.network.fabric import Fabric
    from repro.service import caches
    from repro.sim import dimemas

    stages = (
        ("make_trace", "workloads.trace", None),
        ("compile_trace", "sim.program.compile", _count_compile),
        ("fabric_for", "network.fabric_build", None),
        ("replay_baseline", "sim.baseline_replay", _count_baseline),
        ("select_gt_detailed", "core.gt_select", None),
        ("plan_trace_directives_shared", "core.plan", None),
        ("replay_managed", "sim.managed_replay", _count_managed),
        ("run_cell", "experiments.run_cell", None),
        ("run_cluster_cell", "cluster.cell", None),
        ("replay_cluster_baseline", "cluster.shared_replay", _count_cluster),
        ("replay_cluster_managed", "cluster.shared_replay", _count_cluster),
    )
    for module in (common, cluster_sweep, caches):
        for attr, name, count in stages:
            if attr in module.__dict__:
                tracer.add(module, attr, name, count)
    for attr in ("aggregate", "fabric_switch_rollup", "class_savings_rows"):
        tracer.add(dimemas, attr, "power.accounting")
    tracer.add(Fabric, "precompile_pairs", "network.fabric_build",
               _count_routes)
    tracer.add(TracePlan, "rebind_displacement", "core.rebind",
               _count_rebind)
    if service:
        tracer.add(caches.WarmPipeline, "query", "service.query",
                   _count_query, before=schedule_snapshot)
    return tracer
