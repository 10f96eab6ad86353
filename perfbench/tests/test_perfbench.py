"""Tests of the benchmark's own code: span arithmetic, tail percentile
selection and the output gate."""

from __future__ import annotations

import json
import os
import sys
import types

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

import cells  # noqa: E402
from gate import Outputs, reconcile  # noqa: E402
from quantiles import percentile, tail_percentile  # noqa: E402
from spans import (  # noqa: E402
    OP,
    Span,
    Tracer,
    graft,
    op_balance_errors,
    per_op_self,
    self_times,
)


def span(name, start, end, parent=None, op=0):
    return Span(name, start, end, parent, op, 1)


def test_self_time_subtracts_children_and_sums_to_the_root():
    spans = [
        span(OP, 0, 100),
        span("a", 10, 40, parent=0),
        span("a.inner", 20, 30, parent=1),
        span("b", 50, 90, parent=0),
    ]
    assert self_times(spans) == [30, 20, 10, 40]
    assert sum(self_times(spans)) == spans[0].dur_ns
    assert dict(per_op_self(spans)[0]) == {OP: 30, "a": 20, "a.inner": 10,
                                           "b": 40}
    assert op_balance_errors(spans, tolerance_ns=0) == []


def test_self_time_counts_overlapping_children_once():
    spans = [span(OP, 0, 100), span("a", 10, 50, parent=0),
             span("b", 40, 60, parent=0)]
    assert self_times(spans)[0] == 50
    # the children's own time double-counts 40..50: the operation no
    # longer balances, and the check says so
    assert op_balance_errors(spans, tolerance_ns=0) == [0]


def test_self_time_clips_a_child_to_its_parent():
    spans = [span(OP, 0, 100), span("a", 90, 120, parent=0)]
    assert self_times(spans)[0] == 90


def test_tracer_records_nested_spans_and_uninstalls():
    mod = types.ModuleType("toy")

    def inner(x):
        return x + 1

    def outer(x):
        return mod.inner(x) * 2

    mod.inner, mod.outer = inner, outer
    tracer = Tracer()
    tracer.add(mod, "inner", "toy.inner",
               count=lambda result, args, kwargs, token: {"n": result})
    tracer.add(mod, "outer", "toy.outer")
    tracer.install()
    with tracer.op_span(7):
        assert mod.outer(1) == 4
    tracer.uninstall()
    assert mod.inner is inner and mod.outer is outer
    names = [(s.name, s.parent, s.op) for s in tracer.spans]
    assert names == [(OP, None, 7), ("toy.outer", 0, 7), ("toy.inner", 1, 7)]
    assert tracer.spans[2].args == {"n": 2}
    assert op_balance_errors(tracer.spans, tolerance_ns=0) == []


def test_graft_hangs_daemon_spans_under_the_client_operation():
    client = [span(OP, 0, 100, op=1)]
    daemon = [span("service.query", 5, 10, op=0),  # the untimed warm-up
              span("service.query", 10, 90, op=1),
              span("sim.managed_replay", 20, 80, parent=1, op=1)]
    merged = graft(client, daemon)
    assert [(s.name, s.parent) for s in merged] == [
        (OP, None), ("service.query", 0), ("sim.managed_replay", 1)]
    assert op_balance_errors(merged, tolerance_ns=0) == []


@pytest.mark.parametrize("n, p", [
    (19, None), (20, 50.0), (40, 75.0), (199, 90.0), (200, 95.0),
    (999, 95.0), (1000, 99.0), (10000, 99.9),
])
def test_tail_is_the_highest_percentile_with_ten_samples_beyond(n, p):
    tail = tail_percentile(list(range(n)))
    assert (tail[0] if tail else None) == p
    if tail:
        beyond = sum(1 for x in range(n) if x > tail[1])
        assert beyond >= 10


def test_percentile_interpolates():
    assert percentile([1, 2, 3, 4], 50) == 2.5
    assert percentile([5], 95) == 5


def test_a_tampered_fingerprint_fails_the_operation():
    wl = cells.CellWorkload("test", 1, app="alya", nranks=8, iterations=4,
                            displacements=(0.05,))
    outputs = Outputs()
    latency, outcome = cells.one_op(wl, outputs)
    assert latency is not None and outcome.ok, outcome.notes
    outputs.seen["d=0.05"] = "0" * 64
    latency, outcome = cells.one_op(wl, outputs)
    assert not outcome.ok
    assert outputs.mismatches and outputs.mismatches[0].startswith("d=0.05")


def test_a_tampered_record_fails_the_next_run(tmp_path):
    path = str(tmp_path / "expected" / "w-seed1.json")
    record = {"fingerprints": {"d=0.05": "ab"}, "counters": {"per_op": {"x": 1}}}
    assert reconcile(path, record) == []
    assert reconcile(path, record) == []
    with open(path) as fh:
        stored = json.load(fh)
    stored["fingerprints"]["d=0.05"] = "cd"
    with open(path, "w") as fh:
        json.dump(stored, fh)
    assert len(reconcile(path, record)) == 1
