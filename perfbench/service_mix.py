"""``service_mix``: one closed-loop client against a ``repro.cli serve``
daemon subprocess.

The client sends a seeded, Zipf-weighted stream of ``cell`` queries over
more distinct cells than the daemon's 8-bundle LRU holds: the five
applications at 8-32 ranks plus two trunk-managed torus cells, with
displacements from {0.01, 0.02, 0.05, 0.1}.  Most queries are result
hits, so the service layer (socket, framing, admission, dispatch) sets
the median; what-ifs (one managed replay) and cold misses (the whole
pipeline) set the tail.

The key stream is one round of :data:`ROUND` queries, replayed round
after round, each round under a fresh trace seed: every round
starts with none of its cells cached and has exactly the same sequence
of hits, what-ifs and cold misses, so the mix does not drift as the run
goes on and whole rounds compare exactly between runs.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import time
from contextlib import nullcontext

from gate import Outputs

#: the cell universe (16 cells; the daemon caches 8 bundles)
CELLS = tuple(
    {"app": app, "nranks": n}
    for app in ("alya", "gromacs", "wrf", "nas_mg")
    for n in (8, 16, 32)
) + (
    {"app": "nas_bt", "nranks": 9},
    {"app": "nas_bt", "nranks": 16},
    {"app": "alya", "nranks": 16, "topology": "torus:k=4,n=2",
     "policy": "policy:hca=gate,trunk=gate"},
    {"app": "gromacs", "nranks": 16, "topology": "torus:k=4,n=2",
     "policy": "policy:hca=gate,trunk=width:levels=3"},
)
DISPLACEMENTS = (0.01, 0.02, 0.05, 0.1)
ITERATIONS = 10
#: queries per round
ROUND = 300
#: Zipf exponents of cell and of displacement popularity
CELL_ZIPF, DISP_ZIPF = 1.4, 0.5
#: the key sequence is drawn once, from this seed, for every benchmark
#: seed: the hit/what-if/cold mix sets the throughput, so it is held
#: fixed and the benchmark seed chooses the traces instead
STREAM_SEED = 0

HERE = os.path.dirname(os.path.abspath(__file__))


def stream(seed: int) -> tuple[list[tuple[int, float]], int]:
    """``(keys, base)``: one round of (cell index, displacement) keys and
    the trace seed of round 0 (round ``r`` uses ``base + r``)."""

    rng = random.Random(STREAM_SEED)
    cw = [1.0 / (i + 1) ** CELL_ZIPF for i in range(len(CELLS))]
    dw = [1.0 / (i + 1) ** DISP_ZIPF for i in range(len(DISPLACEMENTS))]
    keys = list(zip(rng.choices(range(len(CELLS)), cw, k=ROUND),
                    rng.choices(DISPLACEMENTS, dw, k=ROUND)))
    return keys, random.Random(f"service_mix:{seed}").randrange(1000, 2**30)


def query_spec(cell: int, displacement: float, trace_seed: int) -> dict:
    return dict(CELLS[cell], displacement=displacement,
                iterations=ITERATIONS, seed=trace_seed)


def query_class(stages_ran: list) -> str:
    if not stages_ran:
        return "hit"
    return "whatif" if stages_ran == ["managed_replay"] else "cold"


class Daemon:
    """A ``repro.cli serve`` subprocess on a socket in the output dir."""

    def __init__(self, out_dir: str, tag: str, trace_out: str | None):
        from repro.service.client import ServiceClient

        self.socket = os.path.join(out_dir, f"{tag}-{os.getpid()}.sock")
        cmd = [sys.executable, os.path.join(HERE, "daemon_main.py"),
               "--socket", self.socket]
        if trace_out:
            cmd += ["--trace-out", trace_out]
        self.log = open(os.path.join(out_dir, f"{tag}.log"), "w")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=self.log,
                                     stderr=subprocess.STDOUT)
        self.client = ServiceClient(self.socket, retries=0)

    def wait_ready(self, timeout_s: float = 60.0) -> None:
        from repro.service.client import ServiceError

        deadline = time.perf_counter() + timeout_s
        while True:
            if self.proc.poll() is not None:
                raise RuntimeError(f"daemon exited with {self.proc.returncode}")
            try:
                self.client.ping()
                return
            except ServiceError:
                if time.perf_counter() > deadline:
                    raise
                time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def close(self) -> None:
        try:
            if self.proc.poll() is None:
                try:
                    self.client.shutdown()
                except Exception:  # a dead daemon is stopped below
                    pass
                try:
                    self.proc.wait(timeout=30)
                except subprocess.TimeoutExpired:
                    self.proc.kill()
                    self.proc.wait()
        finally:
            self.log.close()


def _stats_delta(after: dict, before: dict) -> dict:
    out = {}
    for name in ("cells", "results"):
        a, b = after["caches"][name], before["caches"][name]
        out[name] = {k: a[k] - b[k] for k in ("hits", "misses", "evictions")}
    return out


def _hit_pct(counts: dict) -> float:
    total = counts["hits"] + counts["misses"]
    return 100.0 * counts["hits"] / total if total else 0.0


def run(args, started: float) -> dict:
    os.makedirs(args.out, exist_ok=True)
    keys, base = stream(args.seed)
    outputs = Outputs()
    report = {"attempted": 0, "failed": 0, "notes": [], "samples": [],
              "traced_samples": [], "results": {}, "setup_s": [], "rounds": 0,
              "classes": {"hit": [], "whatif": [], "cold": []},
              "record": {"fingerprints": {}, "counters": {}}}
    served: dict[str, dict] = {}  # round-1 key -> payload

    def spawn(tag: str, trace_out: str | None = None) -> Daemon:
        """Start a daemon and warm it with one cold query (set-up)."""

        daemon = Daemon(args.out, tag, trace_out)
        try:
            daemon.wait_ready()
            daemon.client.cell(**query_spec(*keys[0], base))
        except Exception:
            daemon.close()
            raise
        report["setup_s"].append(time.perf_counter() - daemon.started)
        return daemon

    def phase(daemon: Daemon, seconds: float, tracer=None) -> dict:
        """Whole rounds until ``seconds`` have passed; returns the
        daemon's cache-counter deltas over them."""

        before = daemon.client.stats()
        deadline = time.perf_counter() + seconds
        op = 0  # the warm-up query was the daemon's operation 0
        rnd = 0
        sink = report["traced_samples"] if tracer else report["samples"]
        while time.perf_counter() < deadline:
            rnd += 1
            stage_runs: dict[str, int] = {}
            for cell, disp in keys:
                op += 1
                spec = query_spec(cell, disp, base + rnd)
                label = json.dumps(spec, sort_keys=True)
                report["attempted"] += 1
                try:
                    with tracer.op_span(op) if tracer else nullcontext():
                        t = time.perf_counter()
                        reply = daemon.client.cell(**spec)
                        latency = time.perf_counter() - t
                except Exception as exc:  # structured error replies too
                    report["failed"] += 1
                    report["notes"].append(f"{label}: {exc}")
                    continue
                payload = reply["result"]
                ok = outputs.check(label, payload["fingerprint"])
                if payload["helper_spawns"]:
                    ok = False
                    report["notes"].append(f"{label}: helper spawns")
                if not ok:
                    report["failed"] += 1
                    continue
                sink.append(latency)
                kind = query_class(reply["stages_ran"])
                if tracer is None:
                    report["classes"][kind].append(latency)
                for stage in reply["stages_ran"]:
                    stage_runs[stage] = stage_runs.get(stage, 0) + 1
                if rnd == 1:
                    served[label] = payload
            if tracer is None:
                report["record"]["counters"][f"round{rnd}"] = stage_runs
        report["rounds"] += rnd
        return _stats_delta(daemon.client.stats(), before)

    if not args.trace:
        # set-up three times; the last daemon serves the timed rounds
        for i in range(2):
            spawn(f"setup{i}").close()
        daemon = spawn("serve")
        try:
            caches = phase(daemon, args.seconds)
            report["peak_rss_mb"] = daemon.peak_rss_mb()
        finally:
            daemon.close()
    else:
        from spans import Tracer, from_rows, graft

        trace_out = os.path.join(args.out, f"daemon-spans-{os.getpid()}.json")
        daemon = spawn("untraced")
        try:
            phase(daemon, args.seconds / 2)
        finally:
            daemon.close()
        tracer = Tracer()
        daemon = spawn("traced", trace_out)
        try:
            caches = phase(daemon, args.seconds / 2, tracer)
        finally:
            daemon.close()
        with open(trace_out) as fh:
            report["spans"] = graft(tracer.spans, from_rows(json.load(fh)))
        os.unlink(trace_out)
    report["service"] = {
        "result_hit_pct": _hit_pct(caches["results"]),
        "cell_hit_pct": _hit_pct(caches["cells"]),
        "evictions": caches["cells"]["evictions"],
    }
    report["notes"].extend(outputs.mismatches)
    report["attempted"] += _verify(served, report)
    report["record"]["fingerprints"] = {
        k: p["fingerprint"] for k, p in served.items()
    }
    report["results"] = {
        "mean": (
            sum(p["power_savings_pct"] for p in served.values()) / len(served),
            sum(p["exec_time_increase_pct"] for p in served.values())
            / len(served),
        )
    } if served else {}
    return report


def _verify(served: dict, report: dict) -> int:
    """Every round-1 answer must equal an in-process ``run_cell`` of the
    same spec, fingerprint for fingerprint.  Returns the checks made."""

    from repro.experiments.common import clear_cache, run_cell
    from repro.service.caches import cell_payload, normalize_spec

    by_cell: dict[str, list[dict]] = {}
    for label in served:
        spec = json.loads(label)
        cell = {k: v for k, v in spec.items() if k != "displacement"}
        by_cell.setdefault(json.dumps(cell, sort_keys=True), []).append(spec)
    for cell_label, specs in by_cell.items():
        clear_cache()
        cell_kw = json.loads(cell_label)
        disps = sorted({s["displacement"] for s in specs})
        cell = run_cell(
            cell_kw.pop("app"), cell_kw.pop("nranks"),
            displacements=disps, **cell_kw,
        )
        for spec in specs:
            want = cell_payload(normalize_spec(spec), cell.gt, cell.baseline,
                                cell.managed[spec["displacement"]])
            label = json.dumps(spec, sort_keys=True)
            if want["fingerprint"] != served[label]["fingerprint"]:
                report["failed"] += 1
                report["notes"].append(f"{label}: daemon != run_cell")
    clear_cache()
    return len(served)
