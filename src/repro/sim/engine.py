"""Discrete-event simulation core.

A minimal, dependency-free DES kernel in the SimPy style: *processes* are
Python generators that ``yield`` requests to the engine — a
:class:`Delay` (or a bare non-negative float, the allocation-free form
the compiled replay programs use), an :class:`At` absolute-time sleep,
or a :class:`Signal` / :class:`AllOf` to wait on.  The engine owns the clock and an event queue; everything
else (MPI semantics, the network, power) is layered on top in
:mod:`repro.sim.mpi`.

Determinism: events scheduled for the same timestamp are processed in
insertion order (a monotonically increasing sequence number breaks ties),
so repeated runs of the same trace are bit-for-bit identical.  Both
schedulers below honour the same ``(time_us, seq)`` total order.

Schedulers
----------

``Engine(scheduler=...)`` selects the event-queue implementation:

* ``"heap"`` (the default, and the reference for the differential test
  harness) — a single binary heap via :mod:`heapq`.
* ``"calendar"`` — a calendar queue (Brown 1988): a power-of-two ring of
  time buckets with the serving pointer sweeping bucket windows.  An
  entry lands in virtual bucket ``int(t / width)``; the same expression
  gates serving, so placement and serving can never disagree under
  float rounding.  Every bucket is kept sorted by a C ``insort`` on
  push — replay events arrive in near-time-order, so the insertion
  point is almost always the tail and the memmove is empty — and pops
  walk an index cursor: one list index and one float compare per
  event, no heap discipline anywhere on the hot path, and no size
  bookkeeping (the window sweep detects emptiness).  Served prefixes
  are compacted away when a window is exhausted.  When a full ring
  sweep finds nothing (a sparse region of simulated time), a direct
  search over the sorted bucket heads locates the global minimum and
  the pointer jumps there — correctness never depends on the bucket
  width.

Hot-path layout: queue entries are plain ``(time_us, seq, fn, arg)``
tuples (ordered on the first two fields; ``seq`` is unique so the
payload is never compared) and the engine schedules bound methods with an
explicit argument instead of allocating a closure per event.  Processes
waiting on a :class:`Signal` are stored directly in the waiter list, and
:class:`AllOf` barriers register a single :class:`_Barrier` object's
bound method on each pending signal (no per-call lambda closures), so
the resume path allocates nothing beyond the heap tuple itself.  Signals
are pooled: :meth:`Engine.recycle_signal` returns a fired, fully-drained
signal to a free-list that :meth:`Engine.new_signal` reuses, so steady-
state replay allocates no new Signal objects per message.
"""

from __future__ import annotations

import itertools
from bisect import insort
from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Any, Callable, Generator, Iterable

#: event-queue implementations selectable via ``Engine(scheduler=...)``
SCHEDULERS = ("heap", "calendar")

#: default calendar-queue geometry: bucket width in simulated
#: microseconds and ring size (must be a power of two).  Replay events
#: cluster within a few microseconds of ``now`` (MPI latency is 1 us),
#: so a few-tens-of-us window keeps the current bucket hot while the
#: ring spans one ~2 ms "day" before the direct-search fallback kicks
#: in (replay idle gaps — GT-scale, hundreds of us — stay inside a
#: day).  Replay timings are flat across a wide band (2-32 us measured
#: on alya@64), so the exact values are not load-bearing.
CALENDAR_BUCKET_US = 16.0
CALENDAR_NBUCKETS = 128


class SimulationError(RuntimeError):
    """Deadlock or protocol violation detected by the engine."""


def _invoke(action: Callable[[], None]) -> None:
    """Adapter for zero-argument callbacks queued through ``call_at``."""

    action()


@dataclass(frozen=True, slots=True)
class Delay:
    """Yielded by a process to advance its local time."""

    duration_us: float


class At:
    """Yielded by a process to sleep until an *absolute* time.

    The relative :class:`Delay` form resumes at ``now + duration`` — two
    chained delays therefore accumulate as ``(now + d1) + d2``.  ``At``
    lets a process that has already performed that exact arithmetic
    (e.g. a compiled instruction that fuses a coalesced compute burst
    with a PPA overhead charged right after it) reach the identical
    timestamp with a *single* queue event.  Mutable on purpose: hot
    loops keep one instance per frame and rewrite ``t_us`` between
    yields — the engine reads the field synchronously during dispatch,
    so reuse is safe.
    """

    __slots__ = ("t_us",)

    def __init__(self, t_us: float = 0.0) -> None:
        self.t_us = t_us


class Signal:
    """A one-shot condition that processes (or callbacks) can wait on.

    ``fire(value)`` wakes every current and future waiter; waiting on an
    already-fired signal resumes immediately.  Used for message arrival,
    rendezvous handshakes, collective phases, etc.
    """

    __slots__ = ("engine", "name", "fired", "value", "_waiters")

    def __init__(self, engine: "Engine", name: str = "") -> None:
        self.engine = engine
        self.name = name
        self.fired = False
        self.value: Any = None
        self._waiters: list[Callable[[Any], None]] = []

    def fire(self, value: Any = None) -> None:
        if self.fired:
            return
        self.fired = True
        self.value = value
        waiters = self._waiters
        if not waiters:
            return
        self._waiters = []
        # waiters registered before the fire resume *synchronously*, in
        # registration order — the signal's time has come and rescheduling
        # each waiter as its own queue event would double the event count
        # of every message completion.  Recursion is bounded: a resumed
        # process runs only to its next yield, and waiting on an
        # already-fired signal goes through the queue (add_callback /
        # _add_waiter_process below), so same-slice wait loops cannot
        # stack frames.
        engine = self.engine
        resume = engine._resume
        for wake in waiters:
            if wake.__class__ is _Process:
                resume(wake, value)
            else:
                wake(value)

    def fire_at(self, t_us: float, value: Any = None) -> None:
        """Schedule the signal to fire at absolute time ``t_us``."""

        self.engine._schedule(t_us, self.fire, value)

    def add_callback(self, wake: Callable[[Any], None]) -> None:
        """Run ``wake(value)`` when the signal fires (immediately if it
        already has)."""

        if self.fired:
            self.engine._schedule(self.engine.now, wake, self.value)
        else:
            self._waiters.append(wake)

    def _add_waiter_process(self, proc: "_Process") -> None:
        """Resume ``proc`` with the signal's value when it fires."""

        if self.fired:
            self.engine._schedule(self.engine.now, self._wake_process, proc)
        else:
            self._waiters.append(proc)

    def _wake_process(self, proc: "_Process") -> None:
        self.engine._resume(proc, self.value)


class AllOf:
    """Barrier over several signals: resumes once every signal has fired.

    The resumed process receives the list of signal values, ordered as
    passed in.
    """

    __slots__ = ("signals",)

    def __init__(self, signals: Iterable[Signal]) -> None:
        self.signals = list(signals)


@dataclass(slots=True)
class _Process:
    name: str
    gen: Generator
    done: bool = False
    result: Any = None


class _Barrier:
    """Bookkeeping for one :class:`AllOf` wait (no closure allocations).

    One instance per barrier; every pending signal gets the *same* bound
    ``_signal_fired`` callback, and the values are gathered from the
    signals at resume time (ordered as passed to :class:`AllOf`).
    """

    __slots__ = ("engine", "proc", "signals", "remaining")

    def __init__(
        self,
        engine: "Engine",
        proc: _Process,
        signals: list[Signal],
        remaining: int,
    ) -> None:
        self.engine = engine
        self.proc = proc
        self.signals = signals
        self.remaining = remaining

    def _signal_fired(self, _value: Any) -> None:
        self.remaining -= 1
        if self.remaining == 0:
            self.engine._resume(self.proc, [s.value for s in self.signals])


#: Queue entry: ``(time_us, seq, fn, arg)``; dispatched as ``fn(arg)``.
_QueueEntry = tuple


class Engine:
    """The event loop.

    Teardown contract: a drained engine is a reference cycle until
    :meth:`close` runs — the ``_schedule`` closure holds the engine,
    pooled signals point back at it (``Signal.engine``) and
    ``blocked_reporter`` is usually a bound method of an object that
    holds the engine.  Every replay driver closes its engine once the
    run is over, so a finished replay is freed by reference counting
    alone and the cell pipeline can run with the cyclic collector
    paused (:mod:`repro.collector`).  Any new back-reference into the
    engine must be dropped in :meth:`close`;
    ``tests/integration/test_cycle_free_pipeline.py`` fails otherwise.
    """

    # slots: the scheduling hot paths touch these attributes per event;
    # ``_schedule`` is a slot (not a method) bound per instance to the
    # selected scheduler's push implementation
    __slots__ = (
        "scheduler",
        "now",
        "_seq",
        "_processes",
        "_active",
        "_signal_pool",
        "_queue",
        "_schedule",
        "_buckets",
        "_cal_mask",
        "_cal_inv",
        "_cal_cur",
        "_direct_searches",
        "blocked_reporter",
        "spawn_count",
    )

    def __init__(
        self,
        scheduler: str = "heap",
        *,
        calendar_bucket_us: float = CALENDAR_BUCKET_US,
        calendar_nbuckets: int = CALENDAR_NBUCKETS,
    ) -> None:
        if scheduler not in SCHEDULERS:
            raise ValueError(
                f"unknown scheduler {scheduler!r}; pick one of {SCHEDULERS}"
            )
        self.scheduler = scheduler
        self.now: float = 0.0
        self._seq = itertools.count()
        self._processes: list[_Process] = []
        self._active = 0
        self._signal_pool: list[Signal] = []
        #: optional callable returning extra blocked-entity names for
        #: deadlock reports (processless helpers — e.g. in-flight
        #: rendezvous continuations — are invisible to the process
        #: table, but their stalls should still read like the old
        #: helper-process names did)
        self.blocked_reporter: Callable[[], list[str]] | None = None
        #: lifetime count of spawned processes — the replay layer's
        #: no-helper-spawn invariant is asserted against it
        self.spawn_count = 0
        self._queue: list[tuple] = []
        self._schedule = self._make_schedule_heap()
        if scheduler == "calendar":
            n = int(calendar_nbuckets)
            if n <= 0 or n & (n - 1):
                raise ValueError(
                    f"calendar_nbuckets must be a power of two, got {n}"
                )
            if calendar_bucket_us <= 0:
                raise ValueError("calendar_bucket_us must be positive")
            self._buckets: list[list[tuple]] = [[] for _ in range(n)]
            self._cal_mask = n - 1
            self._cal_inv = 1.0 / float(calendar_bucket_us)
            #: last fully-served virtual bucket number (the scan resumes
            #: at ``_cal_cur + 1``); -1 so the first scan checks window 0
            self._cal_cur = -1
            self._direct_searches = 0
            self._schedule = self._make_schedule_calendar()

    # -- public API ----------------------------------------------------------

    def spawn(self, gen: Generator, name: str = "proc") -> _Process:
        """Register a generator as a simulation process, started at t=now."""

        self.spawn_count += 1
        proc = _Process(name=name, gen=gen)
        self._processes.append(proc)
        self._active += 1
        self._schedule(self.now, self._resume_none, proc)
        return proc

    def call_at(self, t_us: float, action: Callable[[], None]) -> None:
        """Run ``action()`` at absolute time ``t_us`` (>= now)."""

        self._schedule(t_us, _invoke, action)

    def _make_schedule_heap(self) -> Callable:
        """Build the heap push as a closure — ``_schedule(t, fn, arg)``.

        The single-argument ``fn(arg)`` form lets hot paths schedule
        bound methods without closure allocations; binding the queue and
        sequence counter as closure cells (instead of attribute loads
        per call) shaves the hottest few loads off every event push.
        """

        queue = self._queue
        seq_next = self._seq.__next__

        def schedule(t_us: float, fn: Callable[[Any], None], arg: Any,
                     _push=heappush) -> None:
            now = self.now
            if t_us < now - 1e-9:
                raise SimulationError(
                    f"cannot schedule in the past: {t_us} < now={now}"
                )
            _push(queue, (t_us if t_us > now else now, seq_next(), fn, arg))

        return schedule

    def _make_schedule_calendar(self) -> Callable:
        """Build the calendar push as a closure (see
        :meth:`_make_schedule_heap` for why)."""

        buckets = self._buckets
        mask = self._cal_mask
        inv = self._cal_inv
        seq_next = self._seq.__next__

        def schedule(t_us: float, fn: Callable[[Any], None], arg: Any,
                     _insort=insort, _int=int) -> None:
            now = self.now
            if t_us <= now:
                if t_us < now - 1e-9:
                    raise SimulationError(
                        f"cannot schedule in the past: {t_us} < now={now}"
                    )
                t_us = now
            # (t, seq) is globally fresh, so within the serving window
            # the entry always lands at-or-after the cursor position
            _insort(
                buckets[_int(t_us * inv) & mask],
                (t_us, seq_next(), fn, arg),
            )

        return schedule

    def run(self, until_us: float | None = None) -> float:
        """Drain the event queue; returns the final simulation time.

        Raises :class:`SimulationError` if processes remain blocked when
        the queue empties (deadlock — e.g. an unmatched receive).
        """

        if self.scheduler == "calendar":
            return self._run_calendar(until_us)
        queue = self._queue
        now = self.now
        limit = float("inf") if until_us is None else until_us
        while queue:
            entry = heappop(queue)
            t_us = entry[0]
            if t_us > limit:
                heappush(queue, entry)
                self.now = until_us
                return until_us
            if t_us > now:
                now = t_us
                self.now = t_us
            elif t_us < now - 1e-9:
                raise SimulationError("time went backwards in event queue")
            entry[2](entry[3])
        self._check_deadlock()
        return self.now

    def _run_calendar(self, until_us: float | None = None) -> float:
        buckets = self._buckets
        mask = self._cal_mask
        inv = self._cal_inv
        nbuckets = mask + 1
        cur = self._cal_cur
        curb: list[tuple] | None = None
        cursor = 0
        now = self.now
        limit = float("inf") if until_us is None else until_us
        # the serving-window bound (cur + 1.0), maintained wherever the
        # window pointer moves so the per-event gate is one float mul
        # and one compare
        bound = cur + 1.0
        while True:
            if curb is not None and cursor < len(curb):
                entry = curb[cursor]
                t_us = entry[0]
                if t_us * inv < bound:
                    if t_us > limit:
                        # pause without consuming the entry; rewind the
                        # serving pointer so events scheduled while
                        # paused (spawn / call_at at now=until_us) are
                        # not missed by the resuming scan
                        del curb[:cursor]
                        self._cal_cur = int(until_us * inv) - 1
                        self.now = until_us
                        return until_us
                    cursor += 1
                    if t_us > now:
                        now = t_us
                        self.now = t_us
                    elif t_us < now - 1e-9:
                        raise SimulationError(
                            "time went backwards in event queue"
                        )
                    entry[2](entry[3])
                    continue
            if curb is not None:
                # window exhausted: drop the served prefix (entries of
                # future ring laps stay, still sorted)
                del curb[:cursor]
                cursor = 0
                curb = None
            # sweep the ring for the next non-empty window; after a full
            # fruitless day, either the queue is drained or all entries
            # are a day+ away — find the global minimum directly
            scanned = 0
            nonempty = False
            while True:
                cur += 1
                bound += 1.0
                bucket = buckets[cur & mask]
                if bucket:
                    if bucket[0][0] * inv < bound:
                        curb = bucket
                        break
                    nonempty = True
                scanned += 1
                if scanned >= nbuckets:
                    if not nonempty:
                        # drained: rewind the serving pointer to now's
                        # window — events pushed before a later run()
                        # land at t >= now, and the resuming sweep must
                        # meet them in window order
                        self._cal_cur = int(self.now * inv) - 1
                        self._check_deadlock()
                        return self.now
                    self._direct_searches += 1
                    best = None
                    for b in buckets:
                        if b and (best is None or b[0] < best):
                            best = b[0]
                    assert best is not None
                    cur = int(best[0] * inv)
                    bound = cur + 1.0
                    curb = buckets[cur & mask]
                    break
            cursor = 0

    def blocked_names(self) -> list[str]:
        """Names of processes still blocked, plus any processless
        in-flight work registered via ``blocked_reporter`` — the
        blocked-rank report for deadlock and partition errors."""

        blocked = [p.name for p in self._processes if not p.done]
        if self.blocked_reporter is not None:
            blocked.extend(self.blocked_reporter())
        return blocked

    def _check_deadlock(self) -> None:
        if self._active > 0:
            blocked = self.blocked_names()
            raise SimulationError(
                f"deadlock: {self._active} process(es) still blocked: "
                + ", ".join(blocked[:8])
                + ("..." if len(blocked) > 8 else "")
            )

    def scheduler_stats(self) -> dict[str, int]:
        """Instrumentation snapshot (calendar queue fallback counter)."""

        if self.scheduler != "calendar":
            return {}
        return {"direct_searches": self._direct_searches}

    def new_signal(self, name: str = "") -> Signal:
        pool = self._signal_pool
        if pool:
            sig = pool.pop()
            sig.name = name
            sig.fired = False
            sig.value = None
            return sig
        return Signal(self, name)

    def recycle_signal(self, sig: Signal) -> None:
        """Return a signal to the free-list for :meth:`new_signal` reuse.

        Contract: only recycle a signal that has *fired* and whose every
        waiter has already been resumed — i.e. after the recycling
        process itself was woken by it and no other process or queue
        entry can still reference it.  An unfired or still-watched signal
        is silently kept alive instead (recycling it would corrupt the
        waiter that eventually resumes).
        """

        if not sig.fired or sig._waiters:
            return
        self._signal_pool.append(sig)

    @property
    def unfinished(self) -> int:
        return self._active

    def close(self) -> None:
        """Drop every reference that makes this engine a cycle.

        Called by the replay drivers once the run is over (also when it
        raised; the blocked-rank report is taken before).  The clock,
        ``spawn_count`` and ``scheduler_stats()`` stay readable; the
        engine cannot run again.
        """

        for sig in self._signal_pool:
            sig.engine = None
        self._signal_pool = []
        self._processes = []
        self._queue = []
        if self.scheduler == "calendar":
            self._buckets = []
        self._schedule = None
        self.blocked_reporter = None

    # -- internals -------------------------------------------------------------

    def _resume_none(self, proc: _Process) -> None:
        # the scheduled form of every Delay/spawn resume — the hottest
        # callback in a replay, so the dispatch body is duplicated from
        # _resume instead of paying a second frame per event
        if proc.done:
            return
        try:
            request = proc.gen.send(None)
        except StopIteration as stop:
            proc.done = True
            proc.result = stop.value
            self._active -= 1
            return
        cls = request.__class__
        if cls is float:
            if request < 0:
                raise SimulationError(
                    f"process {proc.name} yielded a negative delay"
                )
            self._schedule(self.now + request, self._resume_none, proc)
        elif cls is Delay:
            duration = request.duration_us
            if duration < 0:
                raise SimulationError(
                    f"process {proc.name} yielded a negative delay"
                )
            self._schedule(self.now + duration, self._resume_none, proc)
        elif cls is At:
            t_us = request.t_us
            if t_us < self.now - 1e-9:
                raise SimulationError(
                    f"process {proc.name} yielded At({t_us}) in the past "
                    f"(now={self.now})"
                )
            self._schedule(t_us, self._resume_none, proc)
        elif cls is Signal:
            request._add_waiter_process(proc)
        elif cls is AllOf:
            self._await_all(proc, request)
        else:
            raise SimulationError(
                f"process {proc.name} yielded unsupported request "
                f"{request!r}; yield Delay, At, Signal or AllOf"
            )

    def _resume(self, proc: _Process, send_value: Any) -> None:
        if proc.done:
            return
        try:
            request = proc.gen.send(send_value)
        except StopIteration as stop:
            proc.done = True
            proc.result = stop.value
            self._active -= 1
            return
        # dispatch on exact type: float is the allocation-free delay the
        # compiled programs yield, Delay the interpreter's boxed form —
        # both schedule the identical resume event
        cls = request.__class__
        if cls is float:
            if request < 0:
                raise SimulationError(
                    f"process {proc.name} yielded a negative delay"
                )
            self._schedule(self.now + request, self._resume_none, proc)
        elif cls is Delay:
            duration = request.duration_us
            if duration < 0:
                raise SimulationError(
                    f"process {proc.name} yielded a negative delay"
                )
            self._schedule(self.now + duration, self._resume_none, proc)
        elif cls is At:
            t_us = request.t_us
            if t_us < self.now - 1e-9:
                raise SimulationError(
                    f"process {proc.name} yielded At({t_us}) in the past "
                    f"(now={self.now})"
                )
            self._schedule(t_us, self._resume_none, proc)
        elif cls is Signal:
            request._add_waiter_process(proc)
        elif cls is AllOf:
            self._await_all(proc, request)
        else:
            raise SimulationError(
                f"process {proc.name} yielded unsupported request "
                f"{request!r}; yield Delay, At, Signal or AllOf"
            )

    def _resume_barrier(self, barrier: _Barrier) -> None:
        self._resume(barrier.proc, [s.value for s in barrier.signals])

    def _await_all(self, proc: _Process, barrier: AllOf) -> None:
        signals = barrier.signals
        pending = [s for s in signals if not s.fired]
        if not pending:
            # empty or fully pre-fired: resume through the queue in
            # insertion order, exactly like a waiter on a fired signal
            self._schedule(
                self.now, self._resume_barrier, _Barrier(self, proc, signals, 0)
            )
            return
        bar = _Barrier(self, proc, signals, len(pending))
        fired = bar._signal_fired
        for sig in pending:
            sig.add_callback(fired)
