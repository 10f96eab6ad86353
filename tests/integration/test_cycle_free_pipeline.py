"""A cold cell pipeline leaves no cyclic garbage.

Every pipeline orchestrator (``run_cell``, ``run_cluster_cell``,
``WarmPipeline.query``) runs with CPython's cyclic collector paused
(:mod:`repro.collector`).  That is only safe if the pipeline never
builds reference cycles: a finished replay must be freed by reference
counting alone once its results are dropped.  Each case below runs one
cold operation with the collector disabled, drops everything it
returned, clears the memo and collective-schedule caches, and then
requires a full collection to find **zero** unreachable objects.

A failure here names a new back-reference (an engine, world, scheduler
or closure that points at its owner) that the replay teardown —
``Engine.close()`` / ``MPIWorld.close()`` / ``ClusterScheduler.run`` —
does not drop.
"""

from __future__ import annotations

import gc

import pytest

from repro.experiments.cluster_sweep import run_cluster_cell
from repro.experiments.common import clear_cache, run_cell
from repro.service.caches import WarmPipeline

ITERATIONS = 4


def _paper_cell():
    return run_cell(
        "alya", 16, iterations=ITERATIONS, policy="policy:hca=gate"
    )


def _trunk_managed_cell():
    return run_cell(
        "alya", 8, iterations=ITERATIONS,
        topology="fattree2:leaf=4,ratio=2",
        policy="policy:hca=gate,trunk=width:levels=3,switch=gate",
    )


def _faulted_torus_cell():
    return run_cell(
        "alya", 8, iterations=ITERATIONS, topology="torus:k=3,n=2",
        faults="faults:seed=7,link_fail=0.1,flap=0.2,degrade=0.2,"
               "wake_timeout=0.2",
    )


def _three_job_cluster():
    return run_cluster_cell(
        "static:n=3,gap_us=1000,ranks=4,apps=alya", iterations=ITERATIONS
    )


def _warm_pipeline_cold_query_then_eviction():
    pipeline = WarmPipeline(cell_capacity=1)
    payload, ran = pipeline.query(
        {"app": "alya", "nranks": 8, "iterations": ITERATIONS}
    )
    assert "baseline_replay" in ran  # a cold query
    # evict the bundle through the LRU itself: capacity 1, a new key
    pipeline.cells.put(("evictor",), None)
    assert pipeline.cells.evictions == 1
    return pipeline, payload


CASES = {
    "paper_cell": _paper_cell,
    "fattree2_trunk_switch": _trunk_managed_cell,
    "faulted_torus": _faulted_torus_cell,
    "cluster_three_jobs": _three_job_cluster,
    "warm_pipeline_eviction": _warm_pipeline_cold_query_then_eviction,
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cold_pipeline_leaves_no_cyclic_garbage(case):
    op = CASES[case]
    # one untimed pass first: lazy imports (numpy submodules build
    # classes, which are always cyclic) happen on a process's first
    # cell and are not the pipeline's garbage
    op()
    clear_cache()
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        result = op()
        del result
        clear_cache()
        assert gc.collect() == 0
    finally:
        if was_enabled:
            gc.enable()
