"""MZAP-lite zone announcement tests."""

import pytest

from repro.routing.admin_scoping import AdminScopeMap, ScopeZone
from repro.sap.mzap import (
    ZamTransport,
    ZoneAnnouncer,
    ZoneListener,
)
from repro.sim.events import EventScheduler


@pytest.fixture
def zone_world():
    """Two disjoint zones reusing range 100..200 across 8 nodes."""
    scope_map = AdminScopeMap(8)
    west = ScopeZone("west", frozenset(range(4)), 100, 200)
    east = ScopeZone("east", frozenset(range(4, 8)), 100, 200)
    scope_map.add_zone(west)
    scope_map.add_zone(east)
    sched = EventScheduler()
    transport = ZamTransport(scope_map, sched)
    return scope_map, sched, transport, west, east


class TestZoneAnnouncer:
    def test_member_zone_learned_inside_only(self, zone_world):
        scope_map, sched, transport, west, east = zone_world
        inside = ZoneListener(1, scope_map, transport)
        outside = ZoneListener(5, scope_map, transport)
        announcer = ZoneAnnouncer(west, producer=0, transport=transport)
        announcer.start()
        sched.run(until=10.0)
        assert inside.known_zone_names() == ["west"]
        assert outside.known_zone_names() == []
        assert announcer.announcements_sent >= 1

    def test_periodic_reannouncement(self, zone_world):
        scope_map, sched, transport, west, __ = zone_world
        listener = ZoneListener(1, scope_map, transport)
        announcer = ZoneAnnouncer(west, producer=0, transport=transport,
                                  interval=10.0)
        announcer.start()
        sched.run(until=35.0)
        assert announcer.announcements_sent == 4
        entry = listener.learned[("west", 0)]
        # Each ZAM lands one 0.05 s transport delay after it is sent.
        assert entry.first_heard == pytest.approx(0.05)
        assert entry.last_heard == pytest.approx(30.05)

    def test_stop(self, zone_world):
        scope_map, sched, transport, west, __ = zone_world
        announcer = ZoneAnnouncer(west, producer=0, transport=transport,
                                  interval=10.0)
        announcer.start()
        sched.run(until=5.0)
        announcer.stop()
        sched.run(until=100.0)
        assert announcer.announcements_sent == 1

    def test_producer_must_be_member(self, zone_world):
        __, __, transport, west, __ = zone_world
        with pytest.raises(ValueError):
            ZoneAnnouncer(west, producer=6, transport=transport)

    def test_invalid_interval(self, zone_world):
        __, __, transport, west, __ = zone_world
        with pytest.raises(ValueError):
            ZoneAnnouncer(west, producer=0, transport=transport,
                          interval=0.0)


class TestLeakDetection:
    def test_no_leaks_when_boundaries_hold(self, zone_world):
        scope_map, sched, transport, west, east = zone_world
        listeners = [ZoneListener(n, scope_map, transport)
                     for n in range(8)]
        ZoneAnnouncer(west, 0, transport).start()
        ZoneAnnouncer(east, 5, transport).start()
        sched.run(until=10.0)
        assert all(not l.leaks_detected for l in listeners)

    def test_leak_detected_outside_zone(self, zone_world):
        scope_map, sched, transport, west, east = zone_world
        east_listener = ZoneListener(6, scope_map, transport)
        transport.inject_leak("west")
        ZoneAnnouncer(west, 0, transport).start()
        sched.run(until=10.0)
        assert len(east_listener.leaks_detected) >= 1
        leak = east_listener.leaks_detected[0]
        assert leak.zone_name == "west"

    def test_scoped_ranges_only_from_member_zones(self, zone_world):
        scope_map, sched, transport, west, east = zone_world
        listener = ZoneListener(1, scope_map, transport)
        transport.inject_leak("east")
        ZoneAnnouncer(west, 0, transport).start()
        ZoneAnnouncer(east, 5, transport).start()
        sched.run(until=10.0)
        # The leaked east ZAM is learned but not trusted as "our" zone.
        assert "east" in listener.known_zone_names()
        assert len(listener.leaks_detected) >= 1
