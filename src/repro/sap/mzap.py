"""MZAP-lite: multicast scope zone announcements.

The paper's §1 treats administrative scope zones as configured state;
in practice zones need to *announce themselves* so applications learn
which scopes exist at their site, and so misconfigured (leaky) zone
boundaries can be detected — the job later standardised as MZAP
(RFC 2776).  This module implements the reduced protocol our
simulations need:

* each zone has one or more **Zone Announcement Producers** inside it
  that periodically multicast a Zone Announcement Message (ZAM),
  scoped to the zone's own range;
* listeners collect ZAMs to build their local scope list (which feeds
  the admin-scoped allocator);
* a ZAM heard by a listener *outside* the producer's zone means a
  boundary router is leaking — the key misconfiguration MZAP exists
  to catch.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple


from repro.routing.admin_scoping import AdminScopeMap, ScopeZone
from repro.sim.events import EventHandle, EventScheduler

#: Default ZAM period (RFC 2776 uses 15-60 s ranges; we keep it short
#: for simulation economy).
DEFAULT_ZAM_INTERVAL = 60.0


@dataclass(frozen=True)
class ZoneAnnouncement:
    """One ZAM.

    Attributes:
        zone_name: the textual scope name.
        range_lo: first address index of the scoped range.
        range_hi: one past the last address index.
        producer: node id of the announcing producer.
    """

    zone_name: str
    range_lo: int
    range_hi: int
    producer: int


class ZamTransport:
    """Delivery of ZAMs under admin-scope rules (plus injected leaks).

    A faithful transport would ride the packet network; for the zone
    bookkeeping experiments the scoped delivery rule of
    :class:`AdminScopeMap` is the behaviour under test, so we apply it
    directly — and allow *leaks* to be injected to model a
    misconfigured boundary router.
    """

    def __init__(self, scope_map: AdminScopeMap,
                 scheduler: EventScheduler,
                 delay: float = 0.05) -> None:
        self.scope_map = scope_map
        self.scheduler = scheduler
        self.delay = delay
        self._listeners: Dict[int, List["ZoneListener"]] = {}
        self._leaky_zones: Set[str] = set()

    def listen(self, node: int, listener: "ZoneListener") -> None:
        self._listeners.setdefault(node, []).append(listener)

    def inject_leak(self, zone_name: str) -> None:
        """Make ``zone_name``'s boundary leak ZAMs to everyone."""
        self._leaky_zones.add(zone_name)

    def send(self, announcement: ZoneAnnouncement) -> None:
        leaking = announcement.zone_name in self._leaky_zones
        reach = self.scope_map.reachable(announcement.producer,
                                         announcement.range_lo)
        for node in self._listeners:
            if node == announcement.producer:
                continue
            if not leaking and not reach[node]:
                continue
            # Fire-and-forget is safe here: _deliver looks the node's
            # listeners up at *fire* time, so a listener removed while
            # the ZAM is in flight simply misses it — no stale callback
            # a stored handle would need to cancel.
            self.scheduler.schedule(  # simlint: disable=discarded-handle
                self.delay,
                lambda n=node: self._deliver(n, announcement),
            )

    def _deliver(self, node: int, announcement: ZoneAnnouncement) -> None:
        for listener in list(self._listeners.get(node, ())):
            listener.receive(node, announcement)


class ZoneAnnouncer:
    """A Zone Announcement Producer for one zone."""

    def __init__(self, zone: ScopeZone, producer: int,
                 transport: ZamTransport,
                 interval: float = DEFAULT_ZAM_INTERVAL) -> None:
        if producer not in zone.members:
            raise ValueError(
                f"producer {producer} is outside zone {zone.name!r}"
            )
        if interval <= 0:
            raise ValueError("interval must be positive")
        self.zone = zone
        self.producer = producer
        self.transport = transport
        self.interval = interval
        self.announcements_sent = 0
        self._pending: Optional[EventHandle] = None
        self._running = False

    def start(self) -> None:
        if self._running:
            return
        self._running = True
        self._fire()

    def stop(self) -> None:
        self._running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def _fire(self) -> None:
        if not self._running:
            return
        self.transport.send(ZoneAnnouncement(
            zone_name=self.zone.name,
            range_lo=self.zone.range_lo,
            range_hi=self.zone.range_hi,
            producer=self.producer,
        ))
        self.announcements_sent += 1
        self._pending = self.transport.scheduler.schedule(
            self.interval, self._fire
        )


@dataclass
class LearnedZone:
    """A listener's knowledge of one zone."""

    announcement: ZoneAnnouncement
    first_heard: float
    last_heard: float


class ZoneListener:
    """Collects ZAMs at one node; flags boundary leaks.

    A leak is a ZAM for a zone this node is *not* a member of, heard
    on a scoped range the node *does* have a zone for (or any scoped
    range at all when strict) — i.e. the packet crossed a boundary it
    should not have.
    """

    def __init__(self, node: int, scope_map: AdminScopeMap,
                 transport: ZamTransport) -> None:
        self.node = node
        self.scope_map = scope_map
        self.transport = transport
        self.learned: Dict[Tuple[str, int], LearnedZone] = {}
        self.leaks_detected: List[ZoneAnnouncement] = []
        transport.listen(node, self)

    def receive(self, node: int, announcement: ZoneAnnouncement) -> None:
        now = self.transport.scheduler.now
        key = (announcement.zone_name, announcement.producer)
        entry = self.learned.get(key)
        if entry is None:
            self.learned[key] = LearnedZone(announcement, now, now)
        else:
            entry.last_heard = now
        if not self._member_of(announcement):
            self.leaks_detected.append(announcement)

    def _member_of(self, announcement: ZoneAnnouncement) -> bool:
        for zone in self.scope_map.zones_of(self.node):
            if (zone.name == announcement.zone_name
                    and zone.range_lo == announcement.range_lo):
                return True
        return False

    def known_zone_names(self) -> List[str]:
        return sorted({key[0] for key in self.learned})
