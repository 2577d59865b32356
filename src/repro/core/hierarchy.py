"""Hierarchical (prefix-based) address allocation — paper §4.1.

The paper concludes that flat session-directory allocation cannot scale
to the full 2^28 space and proposes a two-level hierarchy:

* at the **higher level**, multicast address *prefixes* are dynamically
  associated with regions of the network, allocated on long timescales
  so that announce/listen loss barely matters (the paper planned to
  carry these in BGMP/BGP exchanges);
* at the **lower level**, a scheme "similar to the one described here"
  allocates individual addresses out of the region's prefix, with the
  paper's guidance that ~10 000 addresses is "a reasonable bound on
  flat address space allocation";
* lower-level announcements only need regional scope, which improves
  announcement timeliness (smaller *i* in eq. 1).

This module implements that design so it can be compared against flat
allocation (see ``benchmarks/test_ext_hierarchy.py``).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.core.allocator import (
    AllocationResult,
    AllocationView,
    Allocator,
    nth_free_address,
)


class PrefixPool:
    """The higher level: a space divided into equal prefix blocks.

    Args:
        space_size: total addresses.
        num_prefixes: number of equal blocks ("prefixes").
    """

    def __init__(self, space_size: int, num_prefixes: int) -> None:
        if num_prefixes <= 0 or space_size < num_prefixes:
            raise ValueError(
                f"cannot cut {space_size} addresses into "
                f"{num_prefixes} prefixes"
            )
        self.space_size = space_size
        self.num_prefixes = num_prefixes
        self.prefix_size = space_size // num_prefixes

    def prefix_range(self, prefix: int) -> Tuple[int, int]:
        """Half-open address range of ``prefix``."""
        if not 0 <= prefix < self.num_prefixes:
            raise IndexError(f"prefix {prefix} out of {self.num_prefixes}")
        lo = prefix * self.prefix_size
        return lo, lo + self.prefix_size

    def claim_prefix(self, claimed_elsewhere: Set[int],
                     rng: np.random.Generator) -> Optional[int]:
        """Informed-random claim of a free prefix.

        Args:
            claimed_elsewhere: prefixes known (from prefix-usage
                announcements) to be held by some region.
            rng: numpy Generator.

        Returns:
            A free prefix id, or None if every prefix is claimed.
        """
        used = np.array(sorted(claimed_elsewhere), dtype=np.int64)
        free = self.num_prefixes - len(used)
        if free <= 0:
            return None
        r = int(rng.integers(0, free))
        return nth_free_address(used, r, 0, self.num_prefixes)


class HierarchicalAllocator(Allocator):
    """Two-level allocation: claim prefixes, allocate addresses inside.

    One instance per *region*.  Regions coordinate prefix claims via
    the (slow, reliable) prefix announcement channel, modelled by the
    ``claimed_elsewhere`` argument; individual addresses are allocated
    informed-random within the region's prefixes using only *local*
    announcements.

    Args:
        pool: the shared :class:`PrefixPool`.
        region_id: id of the owning region (reporting only).
        grow_at: claim another prefix when live local sessions exceed
            this fraction of owned capacity (the 67% rule again).
        rng: numpy Generator.
    """

    name = "Hierarchical"

    def __init__(self, pool: PrefixPool, region_id: int = 0,
                 grow_at: float = 0.67,
                 *, rng: np.random.Generator) -> None:
        super().__init__(pool.space_size, rng)
        if not 0.0 < grow_at <= 1.0:
            raise ValueError(f"grow_at outside (0, 1]: {grow_at}")
        self.pool = pool
        self.region_id = region_id
        self.grow_at = grow_at
        self.prefixes: List[int] = []
        self._claims_seen: Set[int] = set()

    # ------------------------------------------------------------------
    # Higher level: prefix management
    # ------------------------------------------------------------------
    def observe_claims(self, claimed_elsewhere: Sequence[int]) -> None:
        """Feed prefix-usage announcements from other regions."""
        self._claims_seen.update(int(p) for p in claimed_elsewhere)

    def ensure_capacity(self, live_local_sessions: int) -> bool:
        """Claim prefixes until capacity covers the local demand.

        Returns False when the pool is exhausted before capacity is
        sufficient.
        """
        while True:
            capacity = len(self.prefixes) * self.pool.prefix_size
            if capacity > 0 and live_local_sessions < self.grow_at * capacity:
                return True
            taken = self._claims_seen | set(self.prefixes)
            prefix = self.pool.claim_prefix(taken, self.rng)
            if prefix is None:
                return capacity > 0
            self.prefixes.append(prefix)

    # ------------------------------------------------------------------
    # Lower level: address allocation within owned prefixes
    # ------------------------------------------------------------------
    def declared_ranges(self, ttl: int,
                        visible: AllocationView) -> List[Tuple[int, int]]:
        """Every prefix this region owns (whole space before any claim,
        since ``allocate`` claims its first prefix on demand)."""
        if not self.prefixes:
            return [(0, self.space_size)]
        return [self.pool.prefix_range(p) for p in self.prefixes]

    def allocate(self, ttl: int,
                 visible: AllocationView) -> AllocationResult:
        """Allocate within owned prefixes, avoiding visible addresses.

        ``visible`` needs only the *regional* announcements — the
        locality win the paper highlights.
        """
        self._check_ttl(ttl)
        if not self.prefixes:
            self.ensure_capacity(len(visible) + 1)
        if not self.prefixes:
            raise RuntimeError("prefix pool exhausted")
        # The prefix with the most free addresses first, then an
        # informed pick inside it.
        best = None
        best_free = -1
        for prefix in self.prefixes:
            lo, hi = self.pool.prefix_range(prefix)
            free = len(visible.free_offsets(lo, hi))
            if free > best_free:
                best_free = free
                best = prefix
        lo, hi = self.pool.prefix_range(best)
        result = self._informed_pick(visible, lo, hi, band=best)
        return result
