"""The reactive controllers' O(1) reject against a full-scan oracle.

:class:`IdleGatedLink` (and :class:`GatedSwitch`, which wraps one over
all its ports' channels) answers an in-window arrival from a running
lower bound of its traffic watermark, and scans every channel only when
the bound cannot decide.  The class below marked ORACLE decides *every*
call by that full scan, exactly as the controllers did before the bound
existed.  Driven hop by hop over random port traffic — including
transfers the controller never hears about and direct ``request_full(t)``
calls without a link — the controller under test must return the same
ready times and end with the same counters and account intervals.
"""

from hypothesis import given, settings, strategies as st

from repro.network.links import Link, LinkPowerMode
from repro.network.topology import NodeId
from repro.power.policies import ClassPolicy, GatedSwitch, IdleGatedLink
from repro.power.states import WRPSParams

PAPER = WRPSParams.paper()

POLICIES = (
    ClassPolicy("gate"),
    ClassPolicy("width", levels=3),
    ClassPolicy("scale", levels=3),
)


class FullScanOracle:
    """ORACLE: the reactive gate with every decision taken by a scan.

    Wraps its own controller (own account, own counters, same channels)
    and never reads the watermark bound.
    """

    def __init__(self, gate: IdleGatedLink):
        self.gate = gate

    def request_full(self, t_us: float) -> float:
        g = self.gate
        if t_us < g._ready_us:
            g.counters.late_reactivations += 1
            g.counters.total_penalty_us += g._ready_us - t_us
            return g._ready_us
        u = g._last_traffic_end_us()
        if t_us <= u + g.gate_after_us:
            return t_us
        reached = g._descend(u, t_us)
        if reached == 0:
            return t_us
        lv = g.levels[reached - 1]
        start = max(t_us, g._ready_us)
        ready = start + lv.t_react_us
        g.account.switch_mode(start, LinkPowerMode.TRANSITION)
        g.account.switch_mode(ready, LinkPowerMode.FULL)
        g._ready_us = ready
        g.counters.shutdowns += 1
        g.counters.emergency_reactivations += 1
        g.counters.total_penalty_us += ready - t_us
        return ready

    def finish(self, t_end_us: float) -> None:
        self.gate.finish(t_end_us)


class _Switch:
    def __init__(self, ports):
        self.node = NodeId(1, 0)
        self.ports = ports


def _ports(n):
    return [Link(NodeId(1, 0), NodeId(2, i)) for i in range(n)]


@st.composite
def traffic(draw):
    """Ops ``(kind, port, direction, t, size)``.  Arrival times drift
    forward but may step back: the fabric asks per hop at each hop's
    head time, which is not monotone across interleaved transfers."""

    n = draw(st.integers(1, 60))
    base = 0.0
    ops = []
    for _ in range(n):
        base += draw(st.floats(0.0, 120.0, allow_nan=False))
        offset = draw(st.floats(-40.0, 60.0, allow_nan=False))
        ops.append((
            draw(st.sampled_from(["hop", "hop", "hop", "direct", "silent"])),
            draw(st.integers(0, 7)),
            draw(st.booleans()),
            max(0.0, base + offset),
            draw(st.integers(1, 40_000)),
        ))
    return ops


def _drive(sut, oracle, ports, ops):
    """Replay ``ops`` through both controllers over shared channels."""

    t_end = 0.0
    for kind, port, forward, t, size in ops:
        link = ports[port % len(ports)]
        channel = link.forward if forward else link.backward
        if kind == "silent":
            # traffic the controller is not told about: its bound goes
            # stale, so only the exact scan may answer past it
            channel.reserve(t, size)
        elif kind == "direct":
            assert sut.request_full(t) == oracle.request_full(t)
        else:
            ready = sut.request_full(t, link)
            assert ready == oracle.request_full(t)
            channel.reserve(ready, size)
        t_end = max(t_end, channel.next_free_us, t)
    t_end += 500.0
    sut.finish(t_end)
    oracle.finish(t_end)
    assert sut.counters == oracle.gate.counters
    assert sut.account.intervals == oracle.gate.account.intervals


@given(ops=traffic(), nports=st.integers(1, 6),
       policy=st.sampled_from(POLICIES))
@settings(max_examples=150, deadline=None)
def test_gated_switch_matches_the_full_scan(ops, nports, policy):
    ports = _ports(nports)
    sut = GatedSwitch.create(_Switch(ports), policy, PAPER)
    oracle = FullScanOracle(GatedSwitch.create(_Switch(ports), policy, PAPER).gate)
    _drive(sut, oracle, ports, ops)


@given(ops=traffic(), policy=st.sampled_from(POLICIES))
@settings(max_examples=150, deadline=None)
def test_idle_gated_link_matches_the_full_scan(ops, policy):
    link = _ports(1)[0]
    sut = IdleGatedLink.create(link, policy, PAPER)
    oracle = FullScanOracle(IdleGatedLink.create(link, policy, PAPER))
    _drive(sut, oracle, [link], ops)


def test_in_window_hops_skip_the_scan(monkeypatch):
    """The point of the bound: hops inside the hysteresis window of
    traffic already seen never scan the switch's channels."""

    ports = _ports(4)
    gs = GatedSwitch.create(_Switch(ports), ClassPolicy("gate"), PAPER)
    scans = []
    scan = IdleGatedLink._last_traffic_end_us
    monkeypatch.setattr(
        IdleGatedLink, "_last_traffic_end_us",
        lambda self: scans.append(1) or scan(self),
    )
    t = 0.0
    for hop in range(200):
        link = ports[hop % 4]
        assert gs.request_full(t, link) == t
        _, end = link.forward.reserve(t, 1000)
        t = end + 1.0
    assert scans == []
    assert gs.counters.shutdowns == 0
    # a long gap cannot be decided by the bound: one scan, one descent
    assert gs.request_full(t + 1e4, ports[0]) > t + 1e4
    assert len(scans) == 1
    assert gs.counters.shutdowns == 1
