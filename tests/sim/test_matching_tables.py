"""The matching tables: one item per slot, FIFO under tag reuse, no
drained keys.

``_RankContext.posted`` / ``unexpected`` hold a slot's single pending
item directly and switch to a ``deque`` only while a second item waits
on the same ``(src, tag)``; a key leaves the table with its last item.
These tests pin that format through the helpers, through a hand-built
same-tag replay on both kernels, and through whole pipelines: after
every completed replay — baseline, managed, multi-job cluster — every
rank's tables are empty.
"""

from __future__ import annotations

from collections import deque

import pytest

from repro.constants import EAGER_THRESHOLD_BYTES, LINK_BANDWIDTH_BYTES_PER_US
from repro.experiments.cluster_sweep import run_cluster_cell
from repro.experiments.common import clear_cache, run_cell
from repro.sim.dimemas import ReplayConfig, replay_baseline
from repro.sim import mpi
from repro.sim.mpi import MPIWorld
from repro.trace.events import Collective, MPICall, PointToPoint
from repro.trace.trace import Trace
from repro.workloads import make_trace

KERNELS = ("reference", "fast")
ITERATIONS = 6
KEY = (3, 7)


@pytest.fixture
def closed_worlds(monkeypatch):
    """Every :class:`MPIWorld` a replay closes, in closing order."""

    worlds = []
    close = MPIWorld.close

    def recording_close(self):
        worlds.append(self)
        close(self)

    monkeypatch.setattr(MPIWorld, "close", recording_close)
    return worlds


def _assert_tables_empty(worlds):
    assert worlds
    for world in worlds:
        for ctx in world.ranks:
            assert ctx.posted == {}, (world.name_prefix, ctx.rank)
            assert ctx.unexpected == {}, (world.name_prefix, ctx.rank)


class TestHelpers:
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_fill_then_drain(self, depth):
        table = {}
        items = [object() for _ in range(depth)]
        for item in items:
            mpi._table_put(table, KEY, item)
        held = table[KEY]
        if depth == 1:
            assert held is items[0]
        else:
            assert held.__class__ is deque and list(held) == items
        assert [mpi._table_take(table, KEY) for _ in items] == items
        assert table == {}
        assert mpi._table_take(table, KEY) is None

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_interleaved_put_take(self, depth):
        """Keep ``depth`` items queued while a stream passes through:
        items leave in arrival order and the key goes with the last."""

        table = {}
        items = list(range(10 * depth))
        taken = []
        for item in items[:depth]:
            mpi._table_put(table, KEY, item)
        for item in items[depth:]:
            taken.append(mpi._table_take(table, KEY))
            mpi._table_put(table, KEY, item)
            assert KEY in table
        while KEY in table:
            taken.append(mpi._table_take(table, KEY))
        assert taken == items
        assert table == {}

    def test_keys_are_independent(self):
        table = {}
        mpi._table_put(table, (0, 1), "a")
        mpi._table_put(table, (0, 2), "b")
        mpi._table_put(table, (0, 1), "c")
        assert mpi._table_take(table, (0, 2)) == "b"
        assert mpi._table_take(table, (0, 1)) == "a"
        assert list(table) == [(0, 1)]
        assert mpi._table_take(table, (0, 1)) == "c"
        assert table == {}


EAGER = 1024
RDV = 1 << 20


def _same_tag_trace() -> Trace:
    """Three same-tag messages in flight between ranks 0 and 1, twice.

    Tag 7: the first message finds an ``irecv`` already posted; the
    rendezvous RTS and the eager message behind it arrive before rank 1
    posts its blocking receives, so they queue together on one key.
    Tag 9: rank 1 posts two ``irecv`` and a blocking ``recv`` before
    anything is sent, so three receives queue on one key.  Sends are
    spaced so that arrival order is send order.
    """

    t = Trace.empty("same_tag", 2)
    s, r = t[0], t[1]
    s.append(PointToPoint(MPICall.ISEND, 1, EAGER, tag=7))
    s.compute(10.0)
    s.append(PointToPoint(MPICall.ISEND, 1, RDV, tag=7))
    s.compute(10.0)
    s.append(PointToPoint(MPICall.ISEND, 1, 2 * EAGER, tag=7))
    s.append(PointToPoint(MPICall.WAITALL, 1, 0))
    s.compute(1000.0)
    s.append(PointToPoint(MPICall.SEND, 1, RDV, tag=9))
    s.compute(50.0)
    s.append(PointToPoint(MPICall.SEND, 1, EAGER, tag=9))
    s.compute(50.0)
    s.append(PointToPoint(MPICall.SEND, 1, 4 * EAGER, tag=9))
    s.append(Collective(MPICall.BARRIER, 0))

    r.append(PointToPoint(MPICall.IRECV, 0, EAGER, tag=7))
    r.compute(100.0)
    r.append(PointToPoint(MPICall.RECV, 0, RDV, tag=7))
    r.append(PointToPoint(MPICall.RECV, 0, 2 * EAGER, tag=7))
    r.append(PointToPoint(MPICall.WAITALL, 0, 0))
    r.append(PointToPoint(MPICall.IRECV, 0, RDV, tag=9))
    r.append(PointToPoint(MPICall.IRECV, 0, EAGER, tag=9))
    r.append(PointToPoint(MPICall.RECV, 0, 4 * EAGER, tag=9))
    r.append(PointToPoint(MPICall.WAITALL, 0, 0))
    r.append(Collective(MPICall.BARRIER, 0))
    return t


class TestTagReuseReplay:
    @pytest.fixture(scope="class")
    def replays(self):
        assert EAGER * 4 <= EAGER_THRESHOLD_BYTES < RDV
        trace = _same_tag_trace()
        return {
            k: replay_baseline(trace, ReplayConfig(kernel=k)) for k in KERNELS
        }

    def test_kernels_bit_for_bit(self, replays):
        ref, fast = replays["reference"], replays["fast"]
        assert repr(fast.exec_time_us) == repr(ref.exec_time_us)
        assert fast.event_logs == ref.event_logs

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_unexpected_queue_is_fifo(self, replays, kernel):
        """The first blocking recv gets the rendezvous RTS (sent first):
        it waits for the payload.  The second finds the eager message
        already there and completes on the spot — the reverse order
        would swap the two."""

        _irecv, first, second, _wait = replays[kernel].event_logs[1][:4]
        payload_us = RDV / LINK_BANDWIDTH_BYTES_PER_US
        assert first.exit_us - first.enter_us > payload_us
        assert second.exit_us == second.enter_us

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_posted_queue_is_fifo(self, replays, kernel):
        """Rank 1's blocking recv was posted third, so it completes only
        with the third message — after rank 0 issued its last send."""

        logs = replays[kernel].event_logs
        last_send = logs[0][6]
        recv = logs[1][6]
        assert last_send.call is MPICall.SEND and recv.call is MPICall.RECV
        assert recv.exit_us > last_send.enter_us

    @pytest.mark.parametrize("kernel", KERNELS)
    def test_tables_drained(self, kernel, closed_worlds):
        replay_baseline(_same_tag_trace(), ReplayConfig(kernel=kernel))
        _assert_tables_empty(closed_worlds)


def _cell_traffic(app, nranks):
    trace = make_trace(
        app, nranks, iterations=ITERATIONS, seed=1234, scaling="strong"
    )
    p2p = [r.size_bytes for p in trace.processes for r in p.records
           if isinstance(r, PointToPoint)]
    coll = [r for p in trace.processes for r in p.records
            if isinstance(r, Collective)]
    return p2p, coll


class TestTablesEmptyAfterReplay:
    """Baseline, managed and cluster replays leave no key behind."""

    CELLS = (
        ("alya", 8, "fitted"),
        ("nas_mg", 16, "fattree2:leaf=4,ratio=2"),
    )

    def test_cells_cover_both_protocols_and_collectives(self):
        sizes, colls = [], []
        for app, nranks, _topo in self.CELLS:
            p2p, coll = _cell_traffic(app, nranks)
            sizes += p2p
            colls += coll
        assert any(s <= EAGER_THRESHOLD_BYTES for s in sizes)
        assert any(s > EAGER_THRESHOLD_BYTES for s in sizes)
        assert colls

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("app,nranks,topology", CELLS)
    def test_baseline_and_managed(self, app, nranks, topology, kernel,
                                  closed_worlds):
        cell = run_cell(
            app, nranks, displacements=(0.05,), iterations=ITERATIONS,
            topology=topology, kernel=kernel, use_cache=False,
        )
        assert cell.managed[0.05].total_shutdowns > 0
        assert len(closed_worlds) == 2  # the baseline and the managed run
        _assert_tables_empty(closed_worlds)

    @pytest.mark.cluster
    @pytest.mark.parametrize("kernel", KERNELS)
    def test_three_job_cluster(self, kernel, closed_worlds):
        clear_cache()
        try:
            run_cluster_cell(
                "static:n=3,gap_us=1000,ranks=4,apps=alya",
                iterations=ITERATIONS, kernel=kernel,
                scheduler="heap" if kernel == "reference" else "calendar",
            )
        finally:
            clear_cache()
        # the isolated cell (baseline + managed) and three jobs in each
        # of the two cluster replays
        assert len(closed_worlds) == 2 + 3 + 3
        _assert_tables_empty(closed_worlds)
