"""The three-phase clash detection and correction protocol (paper §3).

1. **Defend**: a site whose *long-announced* session clashes with a
   newly heard announcement immediately re-sends its own announcement
   ("this will typically not occur unless a network partition has been
   resolved recently").
2. **Retreat**: a site that *just* announced a session and sees a
   clash within a small window assumes it lost the race (propagation
   delay) and immediately re-announces with a modified address.
3. **Third-party defence**: any other site that sees a new
   announcement clash with a *cached* session waits a random delay; if
   neither the original announcer defends nor the newcomer retreats in
   that time, it re-announces the cached session on the originator's
   behalf.  The random delay plus suppression-on-hearing-a-response is
   the request-response protocol analysed in §3/§3.1.

"This approach means that existing sessions will not be disrupted by
new sessions."
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.sap.cache import CacheEntry
from repro.sap.response_timer import ExponentialDelayTimer, ResponseDelayTimer
from repro.sim.events import EventHandle, EventScheduler
from repro.sim.rng import derived_stream


def default_timer_factory(rng: np.random.Generator) -> ResponseDelayTimer:
    """The paper's recommendation: exponential delay, modest D2."""
    return ExponentialDelayTimer(d1=0.5, d2=6.4, rtt=0.2, rng=rng)


@dataclass
class ClashPolicy:
    """Tunables for the three-phase behaviour.

    Attributes:
        recent_window: seconds after its first announcement during
            which a session is "new" and retreats on clash (phase 2).
        timer_factory: builds the random-delay timer used by phase 3.
        defend_interval: minimum gap between immediate phase-1
            re-announcements against the same clashing announcement
            (prevents defence storms when the peer keeps announcing).
    """

    recent_window: float = 30.0
    timer_factory: Callable[[np.random.Generator], ResponseDelayTimer] = (
        default_timer_factory
    )
    defend_interval: float = 1.0


@dataclass
class PendingDefence:
    """A scheduled third-party defence awaiting its timer."""

    old_key: Tuple[int, int]
    new_key: Tuple[int, int]
    old_last_heard: float
    handle: Optional[EventHandle]


class ClashHandler:
    """Per-directory clash state machine.

    The owning :class:`~repro.sap.directory.SessionDirectory` calls
    :meth:`on_announcement` for every received announcement; the
    handler calls back into the directory to defend, retreat, or proxy
    a defence.
    """

    def __init__(self, directory, policy: Optional[ClashPolicy] = None,
                 rng: Optional[np.random.Generator] = None) -> None:
        self.directory = directory
        self.policy = policy or ClashPolicy()
        self.rng = rng if rng is not None else derived_stream(
            "sap.clash_protocol"
        )
        self.timer = self.policy.timer_factory(self.rng)
        self._pending: Dict[Tuple[Tuple[int, int], Tuple[int, int]],
                            PendingDefence] = {}
        self._last_defence: Dict[Tuple[int, Tuple[int, int]], float] = {}
        self.clashes_seen = 0
        #: Phase-3 defences fired on another originator's behalf.
        self.defences_sent = 0
        self.retreats = 0
        #: Phase-1 defences of this site's own sessions (after the
        #: ``defend_interval`` rate limit).
        self.own_defences = 0
        #: Phase-3 defences suppressed because the old session was
        #: re-announced while the timer ran.
        self.proxy_suppressed = 0

    @property
    def scheduler(self) -> EventScheduler:
        return self.directory.scheduler

    # ------------------------------------------------------------------
    def on_announcement(self, entry: CacheEntry) -> None:
        """React to a newly received announcement ``entry``.

        Each phase first asks its index's owner one O(1) question: does
        this site own a session at the entry's address, and does the
        cache hold another entry there?  Most announcements are alone
        at their address, so neither phase builds a list.
        """
        address = entry.address_index
        if address is None:
            return
        directory = self.directory
        if directory.has_own_sessions_at(address):
            self._check_own_sessions(entry)
        if not directory.cache.alone_at_address(entry):
            self._check_third_party(entry)

    def _is_established(self, age: float) -> bool:
        """Phase-1 predicate: does a session of this age stand its
        ground?  A session older than the recent window is established
        and defends; a younger one is a newcomer and retreats."""
        return age > self.policy.recent_window

    def _check_own_sessions(self, entry: CacheEntry) -> None:
        """Phases 1 and 2: defend or move own sessions at the entry's
        address."""
        now = self.scheduler.now
        entry_key = entry.message.key()
        for own in self.directory.own_sessions_at(entry.address_index):
            # Own keys are cached with the announcement.  Against
            # another origin the keys differ and the origins order them.
            own_key = own.message_key()
            if own_key == entry_key:
                continue
            own_first = own_key < entry_key
            self.clashes_seen += 1
            age = now - own.first_announced
            other_age = now - entry.first_heard
            if self._is_established(age):
                # Phase 1: defend an established session immediately
                # (rate-limited so a persistent peer cannot provoke a
                # defence storm).
                self._defend(own, entry_key, now)
            elif other_age <= self.policy.recent_window and own_first:
                # Both sessions are new — a simultaneous-allocation
                # race.  A deterministic tie-break makes exactly one
                # side move: the lower (origin, hash) key stands its
                # ground, the higher one retreats.
                self._defend(own, entry_key, now)
            else:
                # Phase 2: we are the newcomer (or lost the tie-break);
                # change address.
                self.retreats += 1
                self.directory.retreat(own)

    def _defend(self, own, entry_key: Tuple[int, int], now: float) -> None:
        key = (own.session.session_id, entry_key)
        last = self._last_defence.get(key)
        if last is not None and now - last < self.policy.defend_interval:
            return
        self._last_defence[key] = now
        self.own_defences += 1
        self.directory.defend(own)

    def _check_third_party(self, entry: CacheEntry) -> None:
        """Phase 3: defend older cached sessions against a newcomer."""
        cache = self.directory.cache
        entry_key = entry.message.key()
        for old in cache.entries_for_address(entry.address_index):
            old_key = old.message.key()
            if old_key == entry_key:
                continue
            if old.first_heard >= entry.first_heard:
                continue  # defend the older entry, not the newer one
            # No cached entry is this site's own: the directory drops
            # its own announcements echoed back before they are cached.
            self.clashes_seen += 1
            self._schedule_defence(old, old_key, entry_key)

    def _schedule_defence(self, old: CacheEntry, old_key: Tuple[int, int],
                          new_key: Tuple[int, int]) -> None:
        key = (old_key, new_key)
        if key in self._pending:
            return
        delay = self.timer.sample()
        pending = PendingDefence(
            old_key=old_key,
            new_key=new_key,
            old_last_heard=old.last_heard,
            handle=None,  # filled below
        )
        pending.handle = self.scheduler.schedule(
            delay, lambda: self._fire_defence(key)
        )
        self._pending[key] = pending

    def _fire_defence(self, key) -> None:
        pending = self._pending.pop(key, None)
        if pending is None:
            return
        cache = self.directory.cache
        old = cache.lookup(*pending.old_key)
        new = cache.lookup(*pending.new_key)
        if old is None or new is None:
            return  # one side withdrew; clash resolved
        if old.last_heard > pending.old_last_heard:
            # Someone (originator or another third party) already
            # re-announced the old session: we are suppressed.
            self.proxy_suppressed += 1
            return
        self.defences_sent += 1
        self.directory.proxy_defend(old)

    def cancel_all(self) -> int:
        """Cancel every pending defence (returns how many)."""
        count = 0
        for pending in self._pending.values():
            pending.handle.cancel()
            count += 1
        self._pending.clear()
        return count
