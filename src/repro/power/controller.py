"""HCA link power controller with hardware reactivation timer (Fig. 5).

The paper adds one hardware timer per link: when the runtime issues the
turn-off-lanes instruction it also programs the timer with the predicted
idle time; when the timer elapses, firmware reactivates the lanes without
interrupting the CPU.  Management is one-directional — the runtime never
hears back whether the prediction was right.

:class:`ManagedLink` couples a fabric :class:`~repro.network.links.Link`
with an energy account and implements that protocol:

* :meth:`shutdown` — turn-off instruction + timer programming;
* :meth:`request_full` — invoked (via the fabric's power-block hook) when
  a transfer finds the link below full width; performs the emergency
  reactivation and reports when the link is usable, recording the
  misprediction penalty.

Timeline committed to the energy account for a normal cycle::

    t_off            t_off+t_deact      t_fire           t_fire+t_react
      |--TRANSITION--|------LOW---------|--TRANSITION----|---FULL...
                         (timer runs)      (reactivation)

The timer starts when the turn-off instruction executes (paper §III-B:
"timers ... are activated upon the turn off lanes instructions are
executed"), so ``t_fire = t_off + timer_us``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..network.links import Link, LinkPowerMode
from .model import LinkEnergyAccount
from .states import WRPSParams


@dataclass(slots=True)
class PowerEventCounters:
    """Per-link statistics the experiments report."""

    shutdowns: int = 0
    timer_reactivations: int = 0
    emergency_reactivations: int = 0   # arrived in LOW: full T_react penalty
    late_reactivations: int = 0        # arrived mid-reactivation: partial
    total_penalty_us: float = 0.0
    skipped_too_short: int = 0         # directive's timer fits no level
    skipped_not_full: int = 0          # back-to-back directive, not FULL
    #: fault injection: reactivations that missed their t_react deadline
    wake_timeouts: int = 0
    wake_timeout_extra_us: float = 0.0

    @property
    def skipped_directives(self) -> int:
        """All refused directives — the pre-split ``skipped_too_short``."""

        return self.skipped_too_short + self.skipped_not_full


@dataclass(slots=True)
class ManagedLink:
    """WRPS power management wrapped around one fabric link."""

    link: Link
    params: WRPSParams
    account: LinkEnergyAccount
    counters: PowerEventCounters = field(default_factory=PowerEventCounters)
    #: scheduled end of the pending LOW window (timer fire time), if any
    _t_fire_us: float | None = None
    _t_deact_end_us: float = 0.0
    #: fault injection: wake-timeout model + this link's draw key (its
    #: host rank); None = reactivations always meet t_react (default)
    wake_faults: "object | None" = None
    wake_key: int = 0
    #: the pending reactivation's spike, drawn once at shutdown time so
    #: repeated _settle calls on one timer see a single consistent value
    _pending_spike_us: float = 0.0

    @classmethod
    def create(
        cls,
        link: Link,
        params: WRPSParams | None = None,
        *,
        wake_faults=None,
        wake_key: int = 0,
        start_us: float = 0.0,
    ) -> "ManagedLink":
        """Wrap ``link``; the energy account opens (FULL) at ``start_us``.

        ``start_us`` defaults to the single-job convention (management
        begins at t=0); a cluster job admitted mid-run opens its episode
        at its admission time, so the account's span is the occupancy
        window rather than the whole cluster timeline.
        """

        p = params or WRPSParams.paper()
        link.t_react_us = p.t_react_us
        account = LinkEnergyAccount(p, start_us=start_us)
        return cls(
            link=link,
            params=p,
            account=account,
            wake_faults=wake_faults,
            wake_key=wake_key,
        )

    # -- runtime-facing API ----------------------------------------------------

    def power_of(self, mode: LinkPowerMode) -> float:
        return self.params.power_of(mode)

    def worthwhile(self, predicted_idle_us: float) -> bool:
        """Paper break-even test: T_idle must exceed 2 * T_react."""

        return predicted_idle_us > self.params.min_worthwhile_idle_us

    def shutdown(self, t_off_us: float, timer_us: float) -> bool:
        """Execute the turn-off-lanes instruction at ``t_off_us``.

        ``timer_us`` is the value programmed into the hardware timer (the
        runtime computes it as ``predicted_idle - safety_limit`` per
        Algorithm 3).  Returns ``False`` (and does nothing) if the window
        is too short to fit the deactivation, or if the link is not
        currently at full width (back-to-back directives).
        """

        if timer_us <= self.params.t_deact_us:
            self.counters.skipped_too_short += 1
            return False
        self._settle(t_off_us)
        if self.link.mode is not LinkPowerMode.FULL:
            self.counters.skipped_not_full += 1
            return False

        t_low = t_off_us + self.params.t_deact_us
        t_fire = t_off_us + timer_us
        self.account.switch_mode(t_off_us, LinkPowerMode.TRANSITION)
        self.account.switch_mode(t_low, LinkPowerMode.LOW)
        self.link.mode = LinkPowerMode.LOW
        self._t_fire_us = t_fire
        self._t_deact_end_us = t_low
        if self.wake_faults is not None:
            # drawn once per shutdown (keyed on the shutdown ordinal) so
            # every path that completes this reactivation sees one value
            self._pending_spike_us = self.wake_faults.spike(
                self.wake_key, self.counters.shutdowns
            )
        self.counters.shutdowns += 1
        return True

    def request_full(self, t_us: float, link: Link | None = None) -> float:
        """A transfer needs full width at ``t_us``; return when usable.

        This is the misprediction path: in the well-predicted case the
        timer has already fired and :meth:`_settle` has returned the link
        to FULL before anything asks for it.  ``link`` (the hop's link,
        passed by the replay's power hook) is not needed here: this
        controller owns exactly one link.
        """

        self._settle(t_us)
        mode = self.link.mode
        if mode is LinkPowerMode.FULL:
            return t_us
        if mode is LinkPowerMode.LOW:
            # Emergency reactivation: cancel the timer and pay T_react.
            # If the request lands while the deactivation is still in
            # flight ([t_off, t_off+t_deact)), the reactivation can only
            # start once the lanes have finished powering down.
            start = max(t_us, self._t_deact_end_us)
            ready = start + self.params.t_react_us + self._consume_spike()
            self.account.switch_mode(start, LinkPowerMode.TRANSITION)
            self.account.switch_mode(ready, LinkPowerMode.FULL)
            self.link.mode = LinkPowerMode.FULL
            self._t_fire_us = None
            self.counters.emergency_reactivations += 1
            self.counters.total_penalty_us += ready - t_us
            return ready
        # TRANSITION: timer-driven reactivation still in flight
        ready = max(t_us, self.link.reactivation_done_us)
        penalty = ready - t_us
        if penalty > 0:
            self.counters.late_reactivations += 1
            self.counters.total_penalty_us += penalty
        return ready

    def finish(self, t_end_us: float) -> None:
        """Commit any pending timer event and close the account."""

        self._settle(t_end_us)
        if self.link.mode is not LinkPowerMode.FULL:
            # run ended inside a LOW window or reactivation; the account
            # keeps whatever mode was active until the end of time
            pass
        self.account.close(t_end_us)

    # -- internal ---------------------------------------------------------------

    def _settle(self, t_us: float) -> None:
        """Commit the timer-driven reactivation if it fired before ``t_us``."""

        if self._t_fire_us is None:
            return
        t_fire = self._t_fire_us
        t_full = t_fire + self.params.t_react_us + self._pending_spike_us
        if t_us >= t_fire:
            # the timer fired: reactivation runs [t_fire, t_fire + T_react)
            self.account.switch_mode(t_fire, LinkPowerMode.TRANSITION)
            if t_us >= t_full:
                self.account.switch_mode(t_full, LinkPowerMode.FULL)
                self.link.mode = LinkPowerMode.FULL
                self._t_fire_us = None
                self.counters.timer_reactivations += 1
                self._consume_spike()
            else:
                self.link.mode = LinkPowerMode.TRANSITION
                self.link.reactivation_done_us = t_full

    def _consume_spike(self) -> float:
        """Account the pending wake-timeout spike (fault injection)."""

        spike = self._pending_spike_us
        if spike > 0.0:
            self.counters.wake_timeouts += 1
            self.counters.wake_timeout_extra_us += spike
            self._pending_spike_us = 0.0
        return spike
