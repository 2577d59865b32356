#!/usr/bin/env python3
"""Administrative scoping end-to-end: zones, MZAP, allocation, leaks.

Countries of the synthetic Mbone become administrative scope zones
that all reuse one address range (the RFC 2365 local-scope pattern).
Zone announcement producers advertise each zone (MZAP-lite); hosts
learn their scopes, allocate inside them with plain informed-random —
which packs perfectly, because admin-scope visibility is symmetric —
and a deliberately mis-configured boundary router is caught leaking.

Run:  python examples/admin_zones.py
"""

import numpy as np

from repro.core.admin import AdminScopedAllocator
from repro.core.allocator import OccupancyView
from repro.routing.admin_scoping import AdminScopeMap, zones_from_labels
from repro.sap.mzap import ZamTransport, ZoneAnnouncer, ZoneListener
from repro.sim.events import EventScheduler
from repro.topology.mbone import MboneParams, generate_mbone

RANGE = 64  # each country zone reuses indices 0..63


def main() -> None:
    topology = generate_mbone(MboneParams(total_nodes=250, seed=13))
    zones = zones_from_labels(topology, prefix_depth=2,
                              range_lo=0, range_hi=RANGE)
    zones = [z for z in zones if len(z.members) >= 5]
    scope_map = AdminScopeMap(topology.num_nodes, zones)
    print(f"{len(zones)} country zones, each reusing a "
          f"{RANGE}-address local-scope range\n")

    # MZAP: every zone announces itself; every zone hosts a listener.
    scheduler = EventScheduler()
    transport = ZamTransport(scope_map, scheduler)
    listeners = {}
    for zone in zones:  # listeners first, so nobody misses ZAM #1
        members = sorted(zone.members)
        listeners[zone.name] = ZoneListener(members[-1], scope_map,
                                            transport)
    for zone in zones:
        ZoneAnnouncer(zone, producer=sorted(zone.members)[0],
                      transport=transport).start()
    scheduler.run(until=5.0)
    sample = zones[0]
    print(f"listener in {sample.name!r} learned zones: "
          f"{listeners[sample.name].known_zone_names()}")

    # Allocation: informed-random inside the zone packs the range
    # completely, and every zone reuses the same addresses.
    rng = np.random.default_rng(1)
    reused = {}
    for zone in zones[:4]:
        node = sorted(zone.members)[0]
        allocator = AdminScopedAllocator(scope_map, node,
                                         space_size=RANGE, rng=rng)
        used = []
        while len(used) < RANGE:
            view = OccupancyView.from_pairs(used, [63] * len(used), RANGE)
            result = allocator.allocate(63, view)
            assert not result.forced
            used.append(result.address)
        reused[zone.name] = set(used)
    print(f"\n4 zones each packed all {RANGE} addresses "
          f"(identical ranges, zero clashes): "
          f"{all(v == set(range(RANGE)) for v in reused.values())}")

    # Misconfiguration: one country's boundary starts leaking ZAMs.
    leaky = zones[1].name
    transport.inject_leak(leaky)
    scheduler.run(until=120.0)
    victims = [name for name, listener in listeners.items()
               if any(leak.zone_name == leaky
                      for leak in listener.leaks_detected)]
    print(f"\nboundary of {leaky!r} misconfigured -> leak detected by "
          f"{len(victims)} listeners in other zones")


if __name__ == "__main__":
    main()
