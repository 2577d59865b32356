"""Extension (§1): administrative vs TTL scoping for allocation.

"The simpler solutions work well for administrative scope zone address
allocation" — because zone visibility is symmetric, plain informed-
random packs a zone range almost completely, while the same algorithm
under TTL scoping is stuck near the birthday bound (fig. 5's IR
curve).  This bench quantifies the gap on the same synthetic Mbone.
"""

import numpy as np

from repro.core.admin import AdminScopedAllocator
from repro.core.allocator import OccupancyView
from repro.core.informed import InformedRandomAllocator
from repro.experiments.allocation_run import allocations_before_first_clash
from repro.experiments.ttl_distributions import DS4
from repro.routing.admin_scoping import AdminScopeMap, zones_from_labels

SPACE = 400
TRIALS = 5


def _admin_fill(mbone, zone_map, rng) -> int:
    """Fill country zones via admin-scoped IR until a clash (or the
    whole reusable range is packed in some zone)."""
    zones = zone_map.zones
    used_per_zone = {zone.name: [] for zone in zones}
    allocations = 0
    node_zone = {}
    for zone in zones:
        for node in zone.members:
            node_zone[node] = zone
    nodes = list(node_zone)
    while True:
        node = nodes[int(rng.integers(0, len(nodes)))]
        zone = node_zone[node]
        used = used_per_zone[zone.name]
        if len(used) == zone.range_size:
            return allocations  # a zone is perfectly full: stop
        allocator = AdminScopedAllocator(zone_map, node, SPACE, rng)
        view = OccupancyView.from_pairs(used, [63] * len(used), SPACE)
        result = allocator.allocate(63, view)
        if result.address in used:
            return allocations  # a clash (cannot happen pre-fill)
        used.append(result.address)
        allocations += 1


def test_ext_admin_scoping(benchmark, record_series, mbone,
                           mbone_scope_map):
    zones = zones_from_labels(mbone, prefix_depth=2, range_lo=0,
                              range_hi=SPACE)
    zone_map = AdminScopeMap(mbone.num_nodes, zones)

    def run():
        admin = [
            _admin_fill(mbone, zone_map, np.random.default_rng((40, t)))
            for t in range(TRIALS)
        ]
        ttl = [
            allocations_before_first_clash(
                mbone_scope_map,
                lambda n, r: InformedRandomAllocator(n, r),
                SPACE, DS4, np.random.default_rng((41, t)),
            )
            for t in range(TRIALS)
        ]
        return float(np.mean(admin)), float(np.mean(ttl))

    admin_mean, ttl_mean = benchmark.pedantic(run, rounds=1,
                                              iterations=1)
    record_series(
        "ext_admin_scoping",
        f"Extension — IR allocations before first clash, space {SPACE}",
        ["scoping", "mean allocations"],
        [("administrative zones (symmetric)", round(admin_mean, 1)),
         ("TTL scoping (asymmetric)", round(ttl_mean, 1))],
    )

    # Admin zones pack the reusable range across every zone — far past
    # what TTL-scoped IR achieves, and past the single-range size.
    assert admin_mean > ttl_mean * 2
    assert admin_mean >= SPACE  # reuse across zones exceeds one range
