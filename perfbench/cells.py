"""The in-process workloads: one closed loop in the benchmark process.

Each operation starts cold, the way a user's ``repro.cli cell`` or
``cluster-sweep`` invocation does: the cell memo and the collective
schedule cache are cleared before it, outside the timed region.

* ``paper_cell`` -- ``run_cell("alya", 64)`` on the fitted XGFT with the
  paper's HCA gating and displacements 0.01/0.05/0.1.  The paper's own
  cell and the reference scale; replay is most of the wall time and the
  power layer manages HCAs only.
* ``scale_trunk`` -- ``run_cell("nas_mg", 256)`` on
  ``fattree2:leaf=16,ratio=2`` with HCA, trunk and switch management at
  displacement 0.05, as ``topo-sweep --policies`` calls it.  The same
  replay layers at 256 ranks, where the reactive trunk and switch
  controllers do real work and set-up stages (trace, compile, fabric)
  take a visible share.
* ``cluster_stream`` -- a six-job, two-tenant Poisson stream on a 4-ary
  2-torus, replayed by ``run_cluster_cell`` under packed and under
  spread placement, as ``cluster-sweep`` does.  The only workload that
  runs the cluster scheduler and placement.
"""

from __future__ import annotations

import contextlib
import random
import statistics
import time
from dataclasses import dataclass, field

from gate import Outputs, job_fingerprint
from spans import replayed_calls, schedule_delta


@dataclass
class Outcome:
    """What the output gate found in one operation's results."""

    ok: bool
    calls: int
    #: label -> (savings %, slowdown %) of the simulated results
    results: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)


def trace_seed(workload: str, seed: int) -> int:
    """The trace/routing seed the program receives for a benchmark seed."""

    return random.Random(f"{workload}:{seed}").randrange(1, 2**31)


class CellWorkload:
    """One cold ``run_cell`` per operation."""

    def __init__(self, name, seed, *, app, nranks, iterations, displacements,
                 topology="fitted", policy="policy:hca=gate"):
        self.name = name
        self.app = app
        self.nranks = nranks
        self.iterations = iterations
        self.displacements = displacements
        self.topology = topology
        self.policy = policy
        self.seed = trace_seed(name, seed)

    def spec(self, displacement: float) -> dict:
        from repro.service.caches import normalize_spec

        return normalize_spec({
            "app": self.app, "nranks": self.nranks,
            "displacement": displacement, "iterations": self.iterations,
            "seed": self.seed, "topology": self.topology,
            "policy": self.policy,
        })

    def prepare(self) -> None:
        from repro.experiments import common

        common.clear_cache()

    def run(self):
        from repro.experiments import common

        return common.run_cell(
            self.app, self.nranks, displacements=self.displacements,
            iterations=self.iterations, seed=self.seed,
            topology=self.topology, policy=self.policy,
        )

    def check(self, cell, outputs: Outputs) -> Outcome:
        from repro.service.caches import cell_payload

        out = Outcome(ok=True, calls=replayed_calls(cell.baseline))
        spawns = cell.baseline.helper_spawns
        for d in self.displacements:
            managed = cell.managed[d]
            payload = cell_payload(self.spec(d), cell.gt, cell.baseline, managed)
            out.ok &= outputs.check(f"d={d}", payload["fingerprint"])
            out.calls += replayed_calls(managed)
            out.results[f"d={d}"] = (managed.power_savings_pct,
                                     managed.exec_time_increase_pct)
            spawns += managed.helper_spawns
        if spawns:
            out.ok = False
            out.notes.append(f"{spawns} helper processes spawned")
        return out

    def verify(self, outputs: Outputs) -> int:
        """The daemon's pipeline must fingerprint every displacement the
        way ``run_cell`` did (in process: same engine, no socket).
        Returns the number of outputs checked."""

        from repro.service.caches import WarmPipeline

        pipeline = WarmPipeline(cell_capacity=1,
                                result_capacity=len(self.displacements))
        for d in self.displacements:
            payload, _ = pipeline.query(self.spec(d))
            outputs.check(f"d={d}", payload["fingerprint"])
        return len(self.displacements)


class ClusterWorkload:
    """``run_cluster_cell`` under each placement per operation."""

    PLACEMENTS = ("packed", "spread")
    TOPOLOGY = "torus:k=4,n=2"
    DISPLACEMENT = 0.05
    ITERATIONS = 10

    def __init__(self, name, seed):
        self.name = name
        self.seed = trace_seed(name, seed)
        stream_seed = random.Random(f"{name}-stream:{seed}").randrange(1, 2**31)
        self.jobs_spec = (
            f"poisson:n=6,mean_gap_us=1500,seed={stream_seed},"
            "apps=alya|gromacs|wrf,ranks=16|8,tenants=2"
        )

    def prepare(self) -> None:
        from repro.experiments import common

        common.clear_cache()

    def run(self):
        from repro.experiments import cluster_sweep

        return [
            cluster_sweep.run_cluster_cell(
                self.jobs_spec, placement=placement,
                displacement=self.DISPLACEMENT, iterations=self.ITERATIONS,
                seed=self.seed, topology=self.TOPOLOGY,
            )
            for placement in self.PLACEMENTS
        ]

    def check(self, cells, outputs: Outputs) -> Outcome:
        from repro.experiments.cluster_sweep import check_energy_sum

        out = Outcome(ok=True, calls=0)
        for placement, cell in zip(self.PLACEMENTS, cells):
            try:
                check_energy_sum(cell.managed)
            except AssertionError as exc:
                out.ok = False
                out.notes.append(f"{placement}: {exc}")
            for i, job in enumerate(cell.managed.jobs):
                out.ok &= outputs.check(f"{placement}/job{i}",
                                        job_fingerprint(job))
            out.calls += replayed_calls(cell.baseline)
            out.calls += replayed_calls(cell.managed)
            jobs = cell.managed.jobs
            out.results[placement] = (
                statistics.fmean(j.power_savings_pct for j in jobs),
                statistics.fmean(j.exec_time_increase_pct for j in jobs),
            )
            spawns = cell.baseline.helper_spawns + cell.managed.helper_spawns
            if spawns:
                out.ok = False
                out.notes.append(f"{placement}: {spawns} helper spawns")
        # the isolated run_cell of each job shape (memoised across the
        # placements) replays the job's trace twice: baseline + managed
        shapes = {}
        for job in cells[0].managed.jobs:
            shapes[(job.trace_name, job.nranks)] = replayed_calls(job)
        out.calls += 2 * sum(shapes.values())
        return out

    def verify(self, outputs: Outputs) -> int:
        return 0


def make(name: str, seed: int):
    if name == "paper_cell":
        return CellWorkload(name, seed, app="alya", nranks=64, iterations=10,
                            displacements=(0.01, 0.05, 0.1))
    if name == "scale_trunk":
        return CellWorkload(
            name, seed, app="nas_mg", nranks=256, iterations=4,
            displacements=(0.05,), topology="fattree2:leaf=16,ratio=2",
            policy="policy:hca=gate,trunk=width:levels=3,switch=gate",
        )
    if name == "cluster_stream":
        return ClusterWorkload(name, seed)
    raise ValueError(f"unknown in-process workload {name!r}")


def one_op(wl, outputs: Outputs, tracer=None, op: int = 0):
    """Run one operation; returns ``(latency_s, outcome)``.  An exception
    in the program is a failed operation, not a crash of the benchmark."""

    wl.prepare()
    try:
        with tracer.op_span(op) if tracer else contextlib.nullcontext() as root:
            t = time.perf_counter()
            raw = wl.run()
            latency = time.perf_counter() - t
        if tracer:
            # prepare() cleared the schedule cache: its counters are
            # this operation's alone
            root.args = schedule_delta({})
    except Exception as exc:  # the loop must go on; the op counts failed
        return None, Outcome(ok=False, calls=0,
                             notes=[f"{type(exc).__name__}: {exc}"])
    return latency, wl.check(raw, outputs)


def run(args, started: float) -> dict:
    """The closed loop.  ``started`` is when the process began setting up."""

    import resource

    wl = make(args.workload, args.seed)
    outputs = Outputs()
    report = {"attempted": 0, "failed": 0, "notes": [], "samples": [],
              "traced_samples": [], "results": {}, "calls": []}

    def account(latency, outcome, sink):
        report["attempted"] += 1
        if latency is None or not outcome.ok:
            report["failed"] += 1
            report["notes"].extend(outcome.notes)
            return
        sink.append(latency)
        report["calls"].append(outcome.calls)
        report["results"] = outcome.results

    account(*one_op(wl, outputs), [])  # untimed warm-up
    report["setup_s"] = [time.perf_counter() - started]
    if args.setup_probe:
        return report

    tracer = None
    if args.trace:
        from spans import Tracer, instrument

        tracer = instrument(Tracer())
    halves = [(False, args.seconds / 2), (True, args.seconds / 2)] \
        if args.trace else [(False, args.seconds)]
    op = 0
    for traced, seconds in halves:
        if traced:
            tracer.install()
        deadline = time.perf_counter() + seconds
        sink = report["traced_samples"] if traced else report["samples"]
        while time.perf_counter() < deadline:
            op += 1
            account(*one_op(wl, outputs, tracer if traced else None, op), sink)
        if traced:
            tracer.uninstall()
    report["peak_rss_mb"] = (
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    )
    if tracer is not None:
        report["spans"] = tracer.spans
    before = len(outputs.mismatches)
    report["attempted"] += wl.verify(outputs)
    report["failed"] += len(outputs.mismatches) - before
    report["notes"].extend(outputs.mismatches)
    report["record"] = {"fingerprints": dict(outputs.seen)}
    return report
