#!/usr/bin/env python3
"""Hierarchical prefix allocation — the paper's §4.1 proposal.

Four regions share one multicast address space.  Each region claims
prefixes through the slow, reliable higher-level channel and allocates
individual addresses within its prefixes using only regional
announcements.  We churn sessions through the regions, watch prefixes
being claimed on demand, and verify cross-region isolation.

Run:  python examples/hierarchical_prefixes.py
"""

import numpy as np

from repro.core.address_space import MulticastAddressSpace
from repro.core.allocator import OccupancyView
from repro.core.hierarchy import HierarchicalAllocator, PrefixPool

REGIONS = ("north-america", "europe", "asia-pacific", "south-america")
SPACE = MulticastAddressSpace.abstract(2048)


def main() -> None:
    pool = PrefixPool(SPACE.size, num_prefixes=32)
    print(f"space: {SPACE}  ({pool.num_prefixes} prefixes of "
          f"{pool.prefix_size} addresses)\n")

    allocators = {}
    claimed = set()
    local_sessions = {name: [] for name in REGIONS}

    for index, name in enumerate(REGIONS):
        allocators[name] = HierarchicalAllocator(
            pool, region_id=index, rng=np.random.default_rng(index)
        )

    rng = np.random.default_rng(99)
    demand = {"north-america": 120, "europe": 80, "asia-pacific": 30,
              "south-america": 10}
    for round_no in range(max(demand.values())):
        for name in REGIONS:
            if round_no >= demand[name]:
                continue
            allocator = allocators[name]
            # The higher level: prefix-usage announcements propagate
            # reliably (modelled as a shared set).
            allocator.observe_claims(claimed)
            allocator.ensure_capacity(len(local_sessions[name]) + 1)
            claimed.update(allocator.prefixes)
            # The lower level: only regional announcements needed.
            used = local_sessions[name]
            view = OccupancyView.from_pairs(used, [63] * len(used),
                                            SPACE.size)
            result = allocator.allocate(63, view)
            used.append(result.address)

    print(f"{'region':16s}{'sessions':>9s}{'prefixes':>9s}  addresses")
    for name in REGIONS:
        allocator = allocators[name]
        used = local_sessions[name]
        ranges = ", ".join(
            f"{SPACE.index_to_ip(pool.prefix_range(p)[0])}/.."
            for p in sorted(allocator.prefixes)
        )
        print(f"{name:16s}{len(used):9d}{len(allocator.prefixes):9d}  "
              f"{ranges}")

    # Isolation: no address allocated in two regions.
    all_addresses = [a for used in local_sessions.values() for a in used]
    print(f"\ntotal sessions: {len(all_addresses)}  "
          f"distinct addresses: {len(set(all_addresses))}  "
          f"cross-region clashes: "
          f"{len(all_addresses) - len(set(all_addresses))}")
    print("prefix demand tracked regional load (the paper's 'prefixes "
          "need to be dynamically allocated too').")


if __name__ == "__main__":
    main()
