#!/usr/bin/env python3
"""Paired A/B of the repository benchmark: this tree against a base commit.

    python3 tools/perfbench_ab.py --workload scale_trunk [--base HEAD~1]
        [--pairs 10] [--seed 1]

``make perfbench-ab WORKLOAD=scale_trunk BASE=HEAD~1 PAIRS=10 SEED=1``
wraps it.  The base is checked out as a temporary ``git worktree``,
removed afterwards.
Each pair runs ``perfbench/run.py`` (this tree's copy, so both sides
are measured by the same benchmark code) once with ``--checkout`` on
each tree, for the 15 s that ``make perfbench`` runs, alternating which
side goes first so that a drift in machine speed hits both alike.  All runs share one ``--out``, so every run
after the first checks its fingerprints and exact counters against the
record the first one left: a change in any result fails that run.

For every end-to-end metric of ``BENCHMARK.json`` it prints each pair's
ratio (this tree / base), each side's median and quartiles, the median
ratio, how many pairs this tree won, and a verdict (:func:`verdict`):
``gain``, ``regression``, ``unresolved`` or ``no regression``, read
against the metric's bound in ``BENCHMARK.json`` and each run's
``failed`` / ``attempted`` counts.  The exit code is 0 only when every
run printed ``"correct": true``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKLOADS = ("paper_cell", "scale_trunk", "service_mix", "cluster_stream")
# the run length of ``make perfbench``
SECONDS = 15


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--base", default="HEAD~1",
                   help="commit to compare against (default: HEAD~1)")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seed", type=int, default=1)
    args = p.parse_args(argv)
    if args.pairs < 1:
        p.error("--pairs must be at least 1")
    return args


def end_to_end_metrics() -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["end_to_end"]


def run_once(workload: str, seed: int, checkout: str, out: str) -> dict:
    """One benchmark run; its last stdout line (the JSON summary)."""

    cmd = [sys.executable, os.path.join(ROOT, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(SECONDS), "--trace", "0",
           "--checkout", checkout, "--out", out]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stderr.write(done.stdout + done.stderr)
        return {"correct": False, "metrics": {}}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pair_wins(base: list[float], head: list[float], better: str) -> int:
    """Pairs in which this tree reads better; ties count for neither."""

    if better == "lower":
        return sum(1 for b, h in zip(base, head) if h < b)
    return sum(1 for b, h in zip(base, head) if h > b)


def verdict(base: list[float], head: list[float], *, better: str,
            bound: float, base_failed: float = 0.0,
            head_failed: float = 0.0) -> str:
    """How one metric of paired runs reads against the parent.

    ``base`` and ``head`` are the per-pair values (pair ``i`` is
    ``base[i]`` against ``head[i]``), ``better`` is ``"lower"`` or
    ``"higher"``, ``bound`` the metric's relative regression bound and
    ``*_failed`` each side's share of failed operations.  In order:

    - ``gain``: this tree wins at least nine tenths of the pairs (ties
      count for neither), its median is better by more than the base's
      interquartile range, and it failed no larger share of operations;
    - ``regression``: the median is worse than the base's by more than
      ``bound``;
    - ``unresolved``: the base's IQR / median exceeds ``bound``, unless
      every run of this tree beats every base run;
    - ``no regression`` otherwise.
    """

    sign = 1.0 if better == "lower" else -1.0
    wins = pair_wins(base, head, better)
    b1, b_med, b3 = quartiles(base)
    h_med = quartiles(head)[1]
    gap = sign * (b_med - h_med)
    if (10 * wins >= 9 * len(base) and gap > b3 - b1
            and head_failed <= base_failed):
        return "gain"
    if -gap > bound * abs(b_med):
        return "regression"
    if better == "lower":
        all_better = max(head) < min(base)
    else:
        all_better = min(head) > max(base)
    if (b3 - b1) > bound * abs(b_med) and not all_better:
        return "unresolved"
    return "no regression"


def failed_share(runs: list[dict]) -> float:
    """Failed operations over attempted ones, pooled over ``runs``."""

    attempted = sum(r.get("attempted", 0) for r in runs)
    failed = sum(r.get("failed", 0) for r in runs)
    return failed / attempted if attempted else 0.0


def report(workload: str, runs: list[dict[str, dict]]) -> None:
    """Print the paired comparison of one workload's runs."""

    print(f"\n== {workload}: {len(runs)} pairs (ratio = this tree / base)")
    base_failed = failed_share([r["base"] for r in runs])
    head_failed = failed_share([r["head"] for r in runs])
    print(f"failed operations: base {base_failed:.2%}  this {head_failed:.2%}")
    for metric in end_to_end_metrics():
        name = metric["name"]
        pairs = [(r["base"]["metrics"][name]["value"],
                  r["head"]["metrics"][name]["value"])
                 for r in runs
                 if name in r["base"]["metrics"]
                 and name in r["head"]["metrics"]]
        if not pairs:
            continue
        base = [b for b, _ in pairs]
        head = [h for _, h in pairs]
        ratios = [h / b if b else float("nan") for b, h in pairs]
        wins = pair_wins(base, head, metric["better"])
        bq = quartiles(base)
        hq = quartiles(head)
        print(f"{name} ({metric['unit']}, {metric['better']} is better)")
        print("  pair ratios: " + " ".join(f"{r:.3f}" for r in ratios))
        print(f"  base  median {bq[1]:.4g}  quartiles [{bq[0]:.4g}, {bq[2]:.4g}]")
        print(f"  this  median {hq[1]:.4g}  quartiles [{hq[0]:.4g}, {hq[2]:.4g}]")
        print(f"  median ratio {statistics.median(ratios):.3f}  "
              f"wins {wins}/{len(ratios)}")
        print("  verdict: " + verdict(
            base, head, better=metric["better"], bound=metric["bound"],
            base_failed=base_failed, head_failed=head_failed,
        ))


def compare(args, workload: str, base_dir: str, out: str) -> bool:
    sides = (("base", base_dir), ("head", ROOT))
    runs = []
    all_correct = True
    for i in range(args.pairs):
        order = sides if i % 2 == 0 else sides[::-1]
        pair = {}
        for label, checkout in order:
            result = run_once(workload, args.seed, checkout, out)
            pair[label] = result
            ok = result.get("correct") is True
            all_correct &= ok
            print(f"# {workload} pair {i + 1}/{args.pairs} {label}: "
                  f"correct={ok}", file=sys.stderr, flush=True)
        runs.append(pair)
    report(workload, runs)
    if not all_correct:
        print(f"{workload}: at least one run was not correct")
    return all_correct


def main(argv=None) -> int:
    args = parse_args(argv)
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    with tempfile.TemporaryDirectory(prefix="perfbench-ab-") as tmp:
        base_dir = os.path.join(tmp, "base")
        added = subprocess.run(["git", "worktree", "add", "--detach",
                                base_dir, args.base], cwd=ROOT,
                               capture_output=True, text=True)
        if added.returncode != 0:
            sys.stderr.write(added.stderr)
            print(f"cannot check out {args.base!r} as a worktree",
                  file=sys.stderr)
            return 2
        try:
            out = os.path.join(tmp, "out")
            ok = [compare(args, w, base_dir, out) for w in workloads]
        finally:
            subprocess.run(["git", "worktree", "remove", "--force", base_dir],
                           cwd=ROOT, capture_output=True)
    return 0 if all(ok) else 1


if __name__ == "__main__":
    sys.exit(main())
