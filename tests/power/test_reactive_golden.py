"""Golden values for the reactive (trunk/switch) power controllers.

The differential tier compares replay kernels against each other, but
every kernel drives the *same* power controllers, so a controller bug
moves all of them together and the tier stays green.  This file pins
two trunk+switch managed replays to recorded values instead:

* ``exec_time_us`` of the managed replay;
* every per-class savings row (``energy_us``, ``total_us``);
* the :class:`PowerEventCounters` summed per class over the replay's
  HCA, trunk and switch controllers.

The values were recorded before the reactive controllers gained their
constant-time idle-window reject and must not be edited to make a
controller change pass: a change that moves them is a model change.
Floats are compared with ``==`` (the replay is timing-deterministic).
"""

import dataclasses

import pytest

from repro.core import RuntimeConfig, plan_trace_directives, select_gt
from repro.power.controller import PowerEventCounters
from repro.sim import ReplayConfig, dimemas, fabric_for, replay_baseline, replay_managed
from repro.sim.collectives import clear_schedule_cache
from repro.workloads import make_trace

SEED = 11
ITERATIONS = 8
DISPLACEMENT = 0.05

_ZERO_FAULTS = {
    "skipped_too_short": 0,
    "skipped_not_full": 0,
    "wake_timeouts": 0,
    "wake_timeout_extra_us": 0.0,
}

GOLDEN = {
    "fattree2-width-trunks": {
        "args": (
            "policy:hca=gate,trunk=width:levels=3,switch=gate",
            "fattree2:leaf=4,ratio=2",
            "alya",
            16,
        ),
        "exec_time_us": 165599.69719654066,
        "class_savings": [
            ("hca", 2478409.524314014, 2649595.1551446496),
            ("trunk", 986238.6185001977, 1324797.5775723252),
            ("switch", 844146.7051561705, 993598.1831792439),
        ],
        "counters": {
            "hca": {
                "shutdowns": 176,
                "timer_reactivations": 175,
                "emergency_reactivations": 1,
                "late_reactivations": 0,
                "total_penalty_us": 10.0,
                **_ZERO_FAULTS,
            },
            "trunk": {
                "shutdowns": 282,
                "timer_reactivations": 0,
                "emergency_reactivations": 274,
                "late_reactivations": 271,
                "total_penalty_us": 5205.5137742154075,
                **_ZERO_FAULTS,
            },
            "switch": {
                "shutdowns": 218,
                "timer_reactivations": 0,
                "emergency_reactivations": 212,
                "late_reactivations": 379,
                "total_penalty_us": 6807.066163582902,
                **_ZERO_FAULTS,
            },
        },
    },
    "torus-gate-everything": {
        "args": (
            "policy:hca=gate,trunk=gate,switch=gate",
            "torus:k=3,n=2",
            "alya",
            9,
        ),
        "exec_time_us": 325828.06693920406,
        "class_savings": [
            ("hca", 2760288.8450306025, 2932452.6024528365),
            ("trunk", 3711361.7449451503, 5864905.204905673),
            ("switch", 2352038.444541368, 2932452.6024528365),
        ],
        "counters": {
            "hca": {
                "shutdowns": 99,
                "timer_reactivations": 99,
                "emergency_reactivations": 0,
                "late_reactivations": 0,
                "total_penalty_us": 0.0,
                **_ZERO_FAULTS,
            },
            "trunk": {
                "shutdowns": 642,
                "timer_reactivations": 0,
                "emergency_reactivations": 624,
                "late_reactivations": 50,
                "total_penalty_us": 6878.19714364392,
                **_ZERO_FAULTS,
            },
            "switch": {
                "shutdowns": 410,
                "timer_reactivations": 0,
                "emergency_reactivations": 401,
                "late_reactivations": 169,
                "total_penalty_us": 6343.086819057855,
                **_ZERO_FAULTS,
            },
        },
    },
}


def _managed_with_controllers(policy, topology, app, nranks, monkeypatch):
    """One managed replay plus the controllers it instantiated."""

    captured = []
    build = dimemas._build_policy_controllers

    def spy(*args, **kwargs):
        built = build(*args, **kwargs)
        captured.append(built)
        return built

    monkeypatch.setattr(dimemas, "_build_policy_controllers", spy)
    clear_schedule_cache()
    trace = make_trace(app, nranks, iterations=ITERATIONS, seed=SEED)
    cfg = ReplayConfig(seed=SEED, topology=topology, policy=policy)
    fabric = fabric_for(trace.nranks, cfg)
    baseline = replay_baseline(trace, cfg, fabric=fabric)
    gt = select_gt(baseline.event_logs)
    directives, stats = plan_trace_directives(
        baseline.event_logs,
        RuntimeConfig(gt_us=gt.gt_us, displacement=DISPLACEMENT),
    )
    managed = replay_managed(
        trace,
        directives,
        baseline_exec_time_us=baseline.exec_time_us,
        displacement=DISPLACEMENT,
        grouping_thresholds_us=[gt.gt_us] * trace.nranks,
        config=cfg,
        runtime_stats=stats,
        fabric=fabric,
    )
    (rank_links, trunk_links, gated_switches), = captured
    return managed, {
        "hca": [c for c in rank_links if c is not None],
        "trunk": trunk_links,
        "switch": gated_switches,
    }


def _summed(controllers) -> dict:
    total = {f.name: 0 for f in dataclasses.fields(PowerEventCounters)}
    for c in controllers:
        for name in total:
            total[name] += getattr(c.counters, name)
    return total


@pytest.mark.parametrize("case", sorted(GOLDEN))
def test_reactive_controllers_reproduce_recorded_values(case, monkeypatch):
    want = GOLDEN[case]
    managed, controllers = _managed_with_controllers(
        *want["args"], monkeypatch
    )
    assert managed.exec_time_us == want["exec_time_us"]
    assert [
        (row.link_class, row.energy_us, row.total_us)
        for row in managed.class_savings
    ] == want["class_savings"]
    for link_class, counters in want["counters"].items():
        got = _summed(controllers[link_class])
        assert {k: got[k] for k in counters} == counters, link_class
