"""OccupancyView, nth_free_address and the allocator base contract."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.core.allocator import (
    AllocationResult,
    OccupancyView,
    nth_free_address,
)
from repro.core.partitions import IPR3_EDGES, PartitionMap


def from_pairs(addresses, ttls, space_size=16):
    return OccupancyView.from_pairs(np.array(addresses), np.array(ttls),
                                    space_size)


class TestOccupancyViewFromPairs:
    def test_empty(self):
        vs = from_pairs([], [])
        assert len(vs) == 0
        assert vs.free_offsets(4, 9).tolist() == [0, 1, 2, 3, 4]

    def test_mismatched_shapes_rejected(self):
        with pytest.raises(ValueError):
            from_pairs([1, 2], [15])

    @pytest.mark.parametrize("address", [-1, 16, 1000])
    def test_address_outside_space_rejected(self, address):
        with pytest.raises(ValueError, match="address"):
            from_pairs([3, address], [15, 15])

    @pytest.mark.parametrize("ttl", [0, 256, -3])
    def test_ttl_outside_1_to_255_rejected(self, ttl):
        with pytest.raises(ValueError, match="TTL"):
            from_pairs([3, 4], [15, ttl])

    def test_edges_of_both_ranges_accepted(self):
        vs = from_pairs([0, 15], [1, 255])
        assert len(vs) == 2
        assert vs.free_offsets(0, 16).tolist() == list(range(1, 15))

    def test_free_offsets_skip_each_used_address(self):
        vs = from_pairs([9, 3, 9, 1, 12], [1, 1, 2, 3, 1])
        assert len(vs) == 5
        # Free addresses of [1, 11): 2, 4..8, 10.
        assert vs.free_offsets(1, 11).tolist() == [1, 3, 4, 5, 6, 7, 9]

    def test_with_ttl_at_least(self):
        # Band counts take only the sessions with TTL >= min_ttl.
        vs = from_pairs([1, 5, 9], [1, 63, 127])
        ipr3 = PartitionMap(IPR3_EDGES)
        assert vs.band_counts(ipr3, 1) == [1, 1, 1]
        assert vs.band_counts(ipr3, 63) == [0, 1, 1]
        assert vs.band_counts(ipr3, 64) == [0, 0, 1]


class TestNthFreeAddress:
    def test_no_used(self):
        used = np.array([], dtype=np.int64)
        assert nth_free_address(used, 0, 0, 10) == 0
        assert nth_free_address(used, 9, 0, 10) == 9

    def test_skips_used(self):
        used = np.array([0, 1, 5])
        # Free addresses of [0, 10): 2,3,4,6,7,8,9
        frees = [nth_free_address(used, r, 0, 10) for r in range(7)]
        assert frees == [2, 3, 4, 6, 7, 8, 9]

    def test_offset_range(self):
        used = np.array([101, 103])
        frees = [nth_free_address(used, r, 100, 106) for r in range(4)]
        assert frees == [100, 102, 104, 105]

    def test_rank_out_of_bounds_rejected(self):
        used = np.array([0, 1])
        with pytest.raises(ValueError):
            nth_free_address(used, 8, 0, 10)
        with pytest.raises(ValueError):
            nth_free_address(used, -1, 0, 10)

    @given(
        st.integers(min_value=1, max_value=200),
        st.data(),
    )
    def test_property_matches_naive_enumeration(self, hi, data):
        used_set = data.draw(st.sets(
            st.integers(min_value=0, max_value=hi - 1), max_size=hi - 1
        ))
        used = np.array(sorted(used_set), dtype=np.int64)
        free = [a for a in range(hi) if a not in used_set]
        if not free:
            return
        r = data.draw(st.integers(min_value=0, max_value=len(free) - 1))
        assert nth_free_address(used, r, 0, hi) == free[r]


class TestAllocatorBase:
    def test_invalid_space_rejected(self, rng):
        from repro.core.random_alloc import RandomAllocator
        with pytest.raises(ValueError):
            RandomAllocator(0, rng)

    def test_invalid_ttl_rejected(self, rng):
        from repro.core.random_alloc import RandomAllocator
        allocator = RandomAllocator(100, rng)
        with pytest.raises(ValueError):
            allocator.allocate(0, from_pairs([], [], 100))
        with pytest.raises(ValueError):
            allocator.allocate(256, from_pairs([], [], 100))

    def test_allocation_result_fields(self):
        result = AllocationResult(address=5, band=2, informed=True,
                                  forced=False)
        assert result.address == 5
        assert result.band == 2
