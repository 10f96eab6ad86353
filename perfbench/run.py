#!/usr/bin/env python3
"""The repository benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload paper_cell --seed 1 --seconds 15 --trace 0
        [--checkout PATH] [--out DIR]

``--workload all`` runs the four workloads one after another.

``--checkout`` names the source tree to measure (default: the current
directory); its ``src/`` is imported, so the same benchmark code can
measure another checkout, for example a ``git worktree`` of the parent
commit.  Inputs are generated from ``--seed`` alone.  Outputs go under
``--out`` (default ``.perfbench_out``): per run a ``result.json`` and,
with ``--trace 1``, a Chrome trace-event ``trace.json``; per workload
and seed the recorded outputs that later runs must reproduce.

With ``--trace 0`` the run measures end-to-end metrics with no tracing.
With ``--trace 1`` the first half of the run is untraced and the second
half records layer spans; the per-layer metrics come from the second
half and the difference between the halves is the tracing overhead.
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  The exit code is 0 only when
every operation succeeded and every output matched.  README.md
describes the workloads and which layer metric moves which end-to-end
metric.
"""

import time

STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

WORKLOADS = ("paper_cell", "scale_trunk", "service_mix", "cluster_stream")

#: set-up repetitions per run (the reported set-up time is their median)
SETUPS = 3

#: the daemon's pipeline stages (``repro.service.caches.STAGES``), spelled
#: out here because the metric names are fixed by BENCHMARK.json
STAGES = ("trace_generation", "program_compile", "fabric_build",
          "baseline_replay", "gt_select", "planning_pass", "managed_replay")

#: per-layer counters reported with --trace 1 (per operation)
COUNTERS = (
    "sim.mpi_calls", "sim.messages", "sim.bytes", "sim.program.instructions",
    "network.route_pairs", "sim.collectives.schedule_hits",
    "sim.collectives.schedule_misses", "power.shutdowns",
    "power.transitions_to_low", "power.mispredictions", "core.directives",
) + tuple(f"service.stage_runs.{s}" for s in STAGES)

#: layer spans reported as per-operation self seconds with --trace 1
TIMED_LAYERS = (
    "workloads.trace", "sim.program.compile", "network.fabric_build",
    "sim.baseline_replay", "sim.managed_replay", "power.accounting",
    "core.gt_select", "core.plan", "core.rebind",
)


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                   help="one workload, or all of them one after another")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--checkout", default=".",
                   help="source tree to measure (default: current directory)")
    p.add_argument("--out", default=".perfbench_out",
                   help="output directory (default: .perfbench_out)")
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)  # one set-up, then exit
    return p.parse_args(argv)


def use_checkout(path: str) -> str:
    """Import ``repro`` from ``path/src``; every subprocess inherits it."""

    src = os.path.join(os.path.abspath(path), "src")
    if not os.path.isfile(os.path.join(src, "repro", "__init__.py")):
        print(f"perfbench: no repro package under {src}", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, src)
    os.environ["PYTHONPATH"] = src
    # one process per workload (the daemon is the only second one)
    os.environ["REPRO_WORKERS"] = "1"
    return src


def setup_probes(args, count: int) -> list[float]:
    """Set up ``count`` more times, each in a fresh interpreter."""

    cmd = [sys.executable, os.path.abspath(__file__),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", "0", "--checkout", args.checkout, "--out", args.out,
           "--setup-probe"]
    samples = []
    for _ in range(count):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if done.returncode:
            raise RuntimeError(f"set-up probe failed:\n{done.stdout}{done.stderr}")
        samples.append(json.loads(done.stdout.strip().splitlines()[-1])["setup_s"])
    return samples


# ---------------------------------------------------------------------------
# metrics


def end_to_end(args, report) -> tuple[dict, list]:
    """JSON metrics and the printed table rows (name, value, unit, note)."""

    from statistics import median

    from quantiles import tail_percentile

    samples = report["samples"]
    rows = []
    setup = median(report["setup_s"])
    rows.append(("setup_s", setup, "s", f"median of n={len(report['setup_s'])}"))
    metrics = {"setup_s": (setup, "s")}
    service = args.workload == "service_mix"
    if samples:
        p50 = median(samples)
        rate = len(samples) / sum(samples)
        metrics["op_p50_ms"] = (p50 * 1e3, "ms")
        metrics["ops_per_s"] = (rate, "1/s")
        tail = tail_percentile(samples)
        if service:
            rows.append(("query_p50_ms", p50 * 1e3, "ms", f"n={len(samples)}"))
            if tail:
                rows.append((f"query_p{tail[0]:g}_ms", tail[1] * 1e3, "ms",
                             f"n={len(samples)}"))
            rows.append(("queries_per_s", rate, "1/s",
                         f"n={len(samples)}, {report['rounds']} rounds"))
        else:
            rows.append(("cell_p50_s", p50, "s", f"n={len(samples)}"))
            if tail:
                rows.append((f"cell_p{tail[0]:g}_s", tail[1], "s",
                             f"n={len(samples)}"))
            rows.append(("replay_calls_per_s",
                         sum(report["calls"]) / sum(samples), "1/s",
                         f"{median(report['calls'])} calls per operation"))
    metrics["peak_rss_mb"] = (report["peak_rss_mb"], "MB")
    rows.append(("peak_rss_mb", report["peak_rss_mb"], "MB",
                 "daemon process" if service else "benchmark process"))
    for label, (savings, slowdown) in sorted(report["results"].items()):
        rows.append((f"savings_pct[{label}]", savings, "%", "simulated"))
        rows.append((f"slowdown_pct[{label}]", slowdown, "%", "simulated"))
    if service:
        rows += class_rows(report)
        for key, value in report["service"].items():
            rows.append((f"service.{key}", value,
                         "count" if key == "evictions" else "%", "timed rounds"))
    return metrics, rows


def class_rows(report) -> list:
    """Median untraced latency of each ``service_mix`` query class."""

    from statistics import median

    return [(f"service.{kind}_ms", median(lat) * 1e3, "ms",
             f"median, n={len(lat)}")
            for kind, lat in report["classes"].items() if lat]


def per_layer(args, report) -> tuple[dict, list]:
    """Per-layer JSON metrics and table rows from the traced half."""

    from statistics import median

    import spans as sp

    spans = report["spans"]
    selfs = sp.per_op_self(spans)
    counters = sp.per_op_counters(spans)
    ops = sorted(o for o, names in selfs.items() if sp.OP in names)
    n = len(ops)
    if not n:
        raise RuntimeError("no traced operation completed")

    def mean_self(names) -> float:
        return sum(selfs[o].get(x, 0) for o in ops for x in names) / n / 1e9

    rows, metrics = [], {}
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = (mean_self([layer]), "s")
    metrics["pipeline.orchestration_s"] = (mean_self(sp.ORCHESTRATION), "s")
    metrics["op.self_s"] = (mean_self([sp.OP]), "s")
    calls = sum(counters.get(o, {}).get("sim.mpi_calls", 0) for o in ops)
    replay = mean_self(sp.REPLAY) * n
    metrics["sim.us_per_call"] = (replay / calls * 1e6 if calls else 0.0, "us")
    traced = report["traced_samples"]
    overhead = (median(traced) / median(report["samples"]) - 1.0) * 100.0 \
        if traced and report["samples"] else 0.0
    metrics["tracing.overhead_pct"] = (overhead, "%")
    for key in COUNTERS:
        total = sum(counters.get(o, {}).get(key, 0) for o in ops)
        metrics[key] = (total / n, "count")
    svc = report.get("service", {})
    metrics["service.result_hit_pct"] = (svc.get("result_hit_pct", 0.0), "%")
    metrics["service.cell_hit_pct"] = (svc.get("cell_hit_pct", 0.0), "%")
    metrics["service.evictions"] = (svc.get("evictions", 0), "count")

    wall = sum(s.dur_ns for s in spans if s.name == sp.OP and s.op in ops) / n / 1e9
    for name in sp.LAYERS + (sp.OP,):
        value = mean_self([name])
        if value:
            rows.append((f"{name} self", value, "s/op",
                         f"{100.0 * value / wall:5.1f}% of op"))
    if args.workload == "cluster_stream":
        prep = sum(s.dur_ns for s in spans
                   if s.name == "experiments.run_cell" and s.op in ops) / n / 1e9
        rows.append(("cluster.isolated_prep_s", prep, "s/op", "inclusive"))
        rows.append(("cluster.shared_replay_s", mean_self(["cluster.shared_replay"]),
                     "s/op", "self"))
    if args.workload == "service_mix":
        rows += class_rows(report)
    rows.append(("op wall", wall, "s/op", f"n={n} traced operations"))
    rows.append(("sim.us_per_call", metrics["sim.us_per_call"][0], "us",
                 "replay self time per replayed MPI call"))
    rows.append(("tracing.overhead_pct", overhead, "%",
                 "median op, traced half vs untraced half"))
    for key in COUNTERS:
        if metrics[key][0]:
            rows.append((key, metrics[key][0], "count", "per operation"))
    for key in ("service.result_hit_pct", "service.cell_hit_pct",
                "service.evictions"):
        if metrics[key][0]:
            rows.append((key, *metrics[key], "daemon stats, traced half"))
    return metrics, rows


def check_counters(args, report) -> dict:
    """Exact counters of the traced operations, checked and recorded.

    Every in-process operation repeats the same cold computation, so
    their counters must agree and must count the MPI calls the output
    check counted from the results.  The daemon's operations differ by
    query class; they are recorded per round of the stream.
    """

    import spans as sp

    counters = sp.per_op_counters(report["spans"])
    if args.workload == "service_mix":
        from service_mix import ROUND

        rounds: dict[str, dict] = {}
        for op, counts in counters.items():
            acc = rounds.setdefault(f"traced_round{(op - 1) // ROUND + 1}", {})
            for key, value in counts.items():
                acc[key] = acc.get(key, 0) + value
        return rounds
    ops = sorted(counters)
    first = counters[ops[0]]
    for op in ops[1:]:
        if counters[op] != first:
            report["failed"] += 1
            report["notes"].append(f"op {op}: counters differ from op {ops[0]}")
    if report["calls"] and first.get("sim.mpi_calls") != report["calls"][0]:
        report["failed"] += 1
        report["notes"].append(
            f"traced sim.mpi_calls {first.get('sim.mpi_calls')} != "
            f"{report['calls'][0]} calls in the results")
    return {"per_op": first}


# ---------------------------------------------------------------------------


def environment() -> dict:
    import numpy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "machine": platform.machine()}


def run_all(args) -> int:
    """Every workload in turn, each in its own process; the worst exit
    code wins."""

    codes = []
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", workload,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--checkout", args.checkout,
               "--out", args.out]
        codes.append(subprocess.run(cmd).returncode)
    return max(codes)


def main(argv=None) -> int:
    args = parse_args(argv)
    use_checkout(args.checkout)
    if args.workload == "all":
        return run_all(args)
    if args.workload == "service_mix":
        import service_mix as workload
    else:
        import cells as workload
    report = workload.run(args, STARTED)
    if args.setup_probe:
        print(json.dumps({"setup_s": report["setup_s"][0]}))
        return 0 if not report["failed"] else 1
    if not args.trace and args.workload != "service_mix":
        report["setup_s"] += setup_probes(args, SETUPS - 1)

    run_dir = os.path.join(args.out, f"{args.workload}-seed{args.seed}")
    os.makedirs(run_dir, exist_ok=True)
    record = report["record"]
    if args.trace:
        import spans as sp

        record.setdefault("counters", {}).update(check_counters(args, report))
        bad = sp.op_balance_errors(report["spans"])
        for op in bad:
            report["failed"] += 1
            report["notes"].append(f"op {op}: layer self times do not sum "
                                   "to the operation's span")
        with open(os.path.join(run_dir, "trace.json"), "w") as fh:
            json.dump(sp.chrome_trace(report["spans"]), fh)
        metrics, rows = per_layer(args, report)
    else:
        metrics, rows = end_to_end(args, report)
    from gate import reconcile

    changed = reconcile(
        os.path.join(args.out, "expected", f"{args.workload}-seed{args.seed}.json"),
        record,
    )
    report["failed"] += len(changed)
    report["notes"] += changed

    attempted, failed = report["attempted"], report["failed"]
    error_pct = 100.0 * failed / attempted if attempted else 100.0
    env = environment()
    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}  nproc={env['nproc']} python={env['python']} "
          f"numpy={env['numpy']}")
    for name, value, unit, note in rows:
        print(f"{name:34s} {value:14.6g} {unit:6s} {note}")
    print(f"{'error_pct':34s} {error_pct:14.6g} {'%':6s} "
          f"{failed} failed of {attempted} attempted")
    for note in report["notes"][:20]:
        print(f"FAILED: {note}")
    correct = failed == 0 and attempted > 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    with open(os.path.join(run_dir, "result.json"), "w") as fh:
        json.dump(dict(result, environment=env, rows=rows,
                       samples=report["samples"],
                       traced_samples=report["traced_samples"],
                       setup_samples=report["setup_s"],
                       notes=report["notes"]), fh, indent=1)
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
