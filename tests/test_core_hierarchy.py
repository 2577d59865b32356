"""Hierarchical prefix allocation tests (paper §4.1)."""

import numpy as np
import pytest

from repro.core.allocator import OccupancyView
from repro.core.hierarchy import HierarchicalAllocator, PrefixPool


def visible_at(addresses, pool):
    """A view of TTL-63 sessions at ``addresses`` over ``pool``'s space."""
    return OccupancyView.from_pairs(addresses, [63] * len(addresses),
                                    pool.space_size)


class TestPrefixPool:
    def test_ranges_tile_the_space(self):
        pool = PrefixPool(1000, 10)
        assert pool.prefix_size == 100
        assert pool.prefix_range(0) == (0, 100)
        assert pool.prefix_range(9) == (900, 1000)

    def test_bad_shapes_rejected(self):
        with pytest.raises(ValueError):
            PrefixPool(10, 20)
        with pytest.raises(ValueError):
            PrefixPool(10, 0)

    def test_prefix_range_bounds(self):
        pool = PrefixPool(100, 4)
        with pytest.raises(IndexError):
            pool.prefix_range(4)

    def test_claim_avoids_taken(self, rng):
        pool = PrefixPool(100, 4)
        claimed = {0, 1, 2}
        for __ in range(20):
            assert pool.claim_prefix(claimed, rng) == 3

    def test_claim_exhausted_returns_none(self, rng):
        pool = PrefixPool(100, 2)
        assert pool.claim_prefix({0, 1}, rng) is None


class TestHierarchicalAllocator:
    def test_first_allocation_claims_a_prefix(self, rng):
        pool = PrefixPool(1000, 10)
        allocator = HierarchicalAllocator(pool, rng=rng)
        result = allocator.allocate(63, visible_at([], pool))
        assert len(allocator.prefixes) == 1
        lo, hi = pool.prefix_range(allocator.prefixes[0])
        assert lo <= result.address < hi

    def test_regions_claim_disjoint_prefixes(self, rng):
        pool = PrefixPool(1000, 10)
        regions = [HierarchicalAllocator(pool, region_id=i,
                                         rng=np.random.default_rng(i))
                   for i in range(5)]
        claimed = set()
        for region in regions:
            region.observe_claims(claimed)
            region.allocate(63, visible_at([], pool))
            for prefix in region.prefixes:
                assert prefix not in claimed
                claimed.add(prefix)

    def test_grows_when_occupancy_high(self, rng):
        pool = PrefixPool(100, 10)  # prefix size 10
        allocator = HierarchicalAllocator(pool, grow_at=0.67, rng=rng)
        allocator.ensure_capacity(1)
        assert len(allocator.prefixes) == 1
        # 9 live local sessions > 0.67*10 => needs a second prefix.
        allocator.ensure_capacity(9)
        assert len(allocator.prefixes) == 2

    def test_allocates_informed_within_prefix(self, rng):
        pool = PrefixPool(100, 10)
        allocator = HierarchicalAllocator(pool, rng=rng)
        allocator.ensure_capacity(1)
        prefix = allocator.prefixes[0]
        lo, hi = pool.prefix_range(prefix)
        visible = visible_at(list(range(lo, hi - 1)), pool)
        result = allocator.allocate(63, visible)
        assert result.address == hi - 1

    def test_pool_exhaustion_raises(self):
        pool = PrefixPool(4, 2)
        a = HierarchicalAllocator(pool, rng=np.random.default_rng(1))
        a.observe_claims([0, 1])
        a.prefixes = []
        with pytest.raises(RuntimeError):
            a.allocate(63, visible_at([], pool))

    def test_invalid_grow_at_rejected(self, rng):
        with pytest.raises(ValueError):
            HierarchicalAllocator(PrefixPool(10, 2), grow_at=0.0, rng=rng)

    def test_picks_least_occupied_prefix(self, rng):
        pool = PrefixPool(100, 10)
        allocator = HierarchicalAllocator(pool, rng=rng)
        allocator.prefixes = [0, 5]
        # Prefix 0 (addresses 0..10) nearly full; prefix 5 empty.
        visible = visible_at(list(range(0, 9)), pool)
        result = allocator.allocate(63, visible)
        assert 50 <= result.address < 60

    def test_ranks_prefixes_by_free_addresses_not_sessions(self, rng):
        pool = PrefixPool(100, 10)
        allocator = HierarchicalAllocator(pool, rng=rng)
        allocator.prefixes = [0, 5]
        # Prefix 0 holds four sessions on two addresses (two clashes),
        # prefix 5 three sessions on three: prefix 0 has more free.
        visible = visible_at([1, 1, 2, 2, 50, 51, 52], pool)
        for __ in range(20):
            result = allocator.allocate(63, visible)
            assert 3 <= result.address < 10
