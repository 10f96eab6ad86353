"""The scoped collector pause (:mod:`repro.collector`).

The contract: the outermost entry disables CPython's cyclic collector
and the last exit restores the state the outermost entry found; nested
entries (in one thread or across threads) are no-ops; an exception in
the body still restores; a collector the caller had disabled stays
disabled; and a worker process forked from inside a pause runs with
the collector free.
"""

from __future__ import annotations

import gc
import os
import sys
import threading
import time

import pytest

from repro.collector import collector_paused, collector_stats
from repro.concurrency import run_resilient
from repro.experiments import common


@pytest.fixture(autouse=True)
def _collector_enabled():
    was_enabled = gc.isenabled()
    gc.enable()
    yield
    assert collector_stats()["pause_depth"] == 0
    if not was_enabled:
        gc.disable()


def test_nested_entry_is_a_no_op():
    with collector_paused():
        assert not gc.isenabled()
        assert collector_stats()["pause_depth"] == 1
        with collector_paused():
            assert collector_stats()["pause_depth"] == 2
        assert not gc.isenabled()
        assert collector_stats()["pause_depth"] == 1
    assert gc.isenabled()


def test_decorated_function_pauses_per_call():
    @collector_paused()
    def body():
        return gc.isenabled(), collector_stats()["pause_depth"]

    assert body() == (False, 1)
    assert body() == (False, 1)
    assert gc.isenabled()


def test_an_exception_inside_still_restores():
    with pytest.raises(RuntimeError, match="boom"):
        with collector_paused():
            with collector_paused():
                raise RuntimeError("boom")
    assert gc.isenabled()


def test_a_collector_the_caller_disabled_stays_disabled():
    gc.disable()
    try:
        with collector_paused():
            assert not gc.isenabled()
        assert not gc.isenabled()
    finally:
        gc.enable()


def test_threads_entering_and_leaving_leave_the_collector_enabled():
    nthreads = 4 * (os.cpu_count() or 1)
    errors: list[str] = []

    def worker(nested: bool) -> None:
        while time.monotonic() < deadline:
            with collector_paused():
                if gc.isenabled():
                    errors.append("collector enabled inside a pause")
                if nested:
                    with collector_paused():
                        if gc.isenabled():
                            errors.append("enabled inside a nested pause")

    threads = [
        threading.Thread(target=worker, args=(i % 2 == 0,))
        for i in range(nthreads)
    ]
    interval = sys.getswitchinterval()
    # switch threads often, so entries and exits interleave densely
    sys.setswitchinterval(1e-5)
    try:
        deadline = time.monotonic() + 0.5
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    assert gc.isenabled()


def _report_collector(_item):
    return gc.isenabled(), collector_stats()["pause_depth"]


def test_a_worker_forked_inside_a_pause_runs_with_the_collector():
    with collector_paused():
        reports = run_resilient(_report_collector, [0, 1], workers=2)
    assert reports == [(True, 0), (True, 0)]


_real_managed_replay_worker = common._managed_replay_worker


def _probing_managed_replay_worker(job):
    assert gc.isenabled(), "displacement worker runs with the collector off"
    assert collector_stats()["pause_depth"] == 0
    return _real_managed_replay_worker(job)


def test_displacement_fan_out_workers_run_with_the_collector(monkeypatch):
    monkeypatch.setenv("REPRO_WORKERS", "2")
    monkeypatch.setattr(
        common, "_managed_replay_worker", _probing_managed_replay_worker
    )
    cell = common.run_cell(
        "alya", 4, displacements=(0.01, 0.05), iterations=4,
        use_cache=False,
    )
    assert sorted(cell.managed) == [0.01, 0.05]
    assert gc.isenabled()
