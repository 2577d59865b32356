"""Address allocation inside administrative scope zones.

The paper (§1): "the simpler solutions work well for administrative
scope zone address allocation" — because zone visibility is symmetric,
an informed-random allocator inside a zone sees *every* session it
could clash with, so it packs the zone range nearly completely (the
i = 0 row of eq. 1).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro.core.allocator import AllocationResult, AllocationView, Allocator
from repro.routing.admin_scoping import AdminScopeMap, ScopeZone


class AdminScopedAllocator(Allocator):
    """Informed-random allocation from a node's admin zone range.

    One instance per (node, zone-range) pair.  ``allocate`` draws from
    the zone's address range, avoiding every visible address — with
    lossless intra-zone announcements that is every allocated address,
    so clashes cannot occur until the range is truly full.

    Args:
        scope_map: the topology's administrative zone structure.
        node: the allocating site.
        space_size: total address-space size (for the base class; the
            usable range is the zone's).
        rng: numpy Generator.
    """

    name = "Admin-IR"

    def __init__(self, scope_map: AdminScopeMap, node: int,
                 space_size: int, rng: np.random.Generator) -> None:
        super().__init__(space_size, rng)
        self.scope_map = scope_map
        self.node = node

    def zone(self) -> Optional[ScopeZone]:
        """The smallest zone containing this node, if any."""
        zones = self.scope_map.zones_of(self.node)
        if not zones:
            return None
        return min(zones, key=lambda z: len(z.members))

    def declared_ranges(self, ttl: int,
                        visible: AllocationView) -> List[Tuple[int, int]]:
        """The node's zone range (whole space when unzoned)."""
        zone = self.zone()
        if zone is None:
            return [(0, self.space_size)]
        return [(zone.range_lo, zone.range_hi)]

    def allocate(self, ttl: int, visible: AllocationView) -> AllocationResult:
        """Allocate inside the node's zone range.

        The ``ttl`` argument is accepted for interface compatibility;
        scope is enforced by the zone boundary, not the TTL (real
        deployments still set a TTL large enough to span the zone).
        """
        self._check_ttl(ttl)
        zone = self.zone()
        if zone is None:
            # No zone: fall back to the whole space (unscoped range).
            return self._informed_pick(visible, 0, self.space_size)
        return self._informed_pick(visible, zone.range_lo, zone.range_hi)
