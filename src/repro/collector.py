"""One scoped pause of CPython's cyclic garbage collector.

A cold cell builds a large heap of long-lived objects (MPI events,
directives, matching queues, compiled programs).  CPython starts a full
collection each time the surviving heap grows by a quarter, so the
collector rescans that growing heap several times per cell and frees
almost nothing.  The pipeline orchestrators (``run_cell``,
``run_cluster_cell``, ``WarmPipeline.query``) therefore run inside
:func:`collector_paused`.

Why that is safe: the pipeline builds no reference cycles.  Every
replay driver closes its engine and world when the run is over
(``Engine.close()``, ``MPIWorld.close()``), so a finished replay is
freed by reference counting alone, and memory stays bounded without the
collector.  ``tests/integration/test_cycle_free_pipeline.py`` pins this:
after a cold operation, ``gc.collect()`` finds nothing.  A replay that
raises (a partitioned fabric, a deadlock) can leave its in-flight
rendezvous sends as small cycles; the collector frees them once the
pause has ended.

The pause is process-wide, like the collector itself.  Entries nest —
across calls (``run_cluster_cell`` runs ``run_cell``) and across the
daemon's handler threads — under one lock: the outermost entry disables
the collector and the last exit restores the state the outermost entry
found, so a collector the caller had disabled stays disabled.  A worker
process forked from inside a pause starts with the pause released and
the collector in that earlier state.

There is no knob: no thresholds are changed and nothing is frozen.
"""

from __future__ import annotations

import gc
import os
import threading
from contextlib import contextmanager
from typing import Iterator

_lock = threading.Lock()
_depth = 0
#: the collector state the outermost entry found (restored on last exit)
_was_enabled = False


@contextmanager
def collector_paused() -> Iterator[None]:
    """Run the body with the cyclic collector disabled (nesting-safe).

    Usable as a decorator too (``@collector_paused()``): each call of
    the decorated function enters a fresh pause.
    """

    global _depth, _was_enabled
    with _lock:
        if _depth == 0:
            _was_enabled = gc.isenabled()
            gc.disable()
        _depth += 1
    try:
        yield
    finally:
        with _lock:
            _depth -= 1
            if _depth == 0 and _was_enabled:
                gc.enable()


def collector_stats() -> dict:
    """The collector's lifetime counters per generation, and how many
    pauses are open right now (0 = the collector is free).  The
    daemon's ``stats`` op reports it: whether a tail of slow replies is
    paying for full collections shows here."""

    generations = gc.get_stats()
    return {
        "collections": [g["collections"] for g in generations],
        "collected": [g["collected"] for g in generations],
        "pause_depth": _depth,
    }


def _release_in_child() -> None:
    # a forked worker runs none of its parent's open pauses to their
    # exit: give it a fresh lock and the collector state from before
    global _lock, _depth
    _lock = threading.Lock()
    if _depth:
        _depth = 0
        if _was_enabled:
            gc.enable()


os.register_at_fork(after_in_child=_release_in_child)
