"""Behavioural tests of the allocation algorithms."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import AdaptiveIprmaAllocator
from repro.core.allocator import OccupancyView
from repro.core.hybrid import HybridIprmaAllocator
from repro.core.informed import InformedRandomAllocator
from repro.core.iprma import StaticIprmaAllocator
from repro.core.partitions import IPR7_EDGES, PartitionMap
from repro.core.random_alloc import RandomAllocator

PAPER_TTLS = (1, 15, 31, 47, 63, 127, 191)


def visible_of(pairs, space_size=1000):
    """A view of ``(address, ttl)`` pairs over a space that holds every
    allocator's here."""
    return OccupancyView.from_pairs([a for a, __ in pairs],
                                    [t for __, t in pairs], space_size)


class TestRandomAllocator:
    def test_in_space(self, rng):
        allocator = RandomAllocator(50, rng)
        for __ in range(200):
            result = allocator.allocate(63, visible_of([]))
            assert 0 <= result.address < 50
            assert not result.informed

    def test_ignores_visible(self, rng):
        """R may clash even with perfect information."""
        allocator = RandomAllocator(3, rng)
        visible = visible_of([(0, 63), (1, 63)])
        picked = {allocator.allocate(63, visible).address
                  for __ in range(100)}
        assert picked == {0, 1, 2}


class TestInformedRandomAllocator:
    def test_avoids_visible(self, rng):
        allocator = InformedRandomAllocator(10, rng)
        visible = visible_of([(a, 63) for a in range(9)])
        for __ in range(20):
            result = allocator.allocate(63, visible)
            assert result.address == 9
            assert result.informed

    def test_full_space_forces(self, rng):
        allocator = InformedRandomAllocator(4, rng)
        visible = visible_of([(a, 63) for a in range(4)])
        result = allocator.allocate(63, visible)
        assert result.forced
        assert 0 <= result.address < 4
        assert allocator.forced_allocations == 1

    def test_uniform_over_free(self, rng):
        allocator = InformedRandomAllocator(6, rng)
        visible = visible_of([(0, 63), (3, 63)])
        picks = [allocator.allocate(63, visible).address
                 for __ in range(600)]
        counts = np.bincount(picks, minlength=6)
        assert counts[0] == 0 and counts[3] == 0
        for a in (1, 2, 4, 5):
            assert 100 <= counts[a] <= 200


class TestStaticIprma:
    def test_band_ranges_cover_space(self, rng):
        allocator = StaticIprmaAllocator.seven_band(700, rng)
        assert allocator.band_ranges[0][0] == 0
        assert allocator.band_ranges[-1][1] == 700

    def test_allocation_lands_in_ttl_band(self, rng):
        allocator = StaticIprmaAllocator.seven_band(700, rng)
        for ttl in PAPER_TTLS:
            result = allocator.allocate(ttl, visible_of([]))
            lo, hi = allocator.band_range(ttl)
            assert lo <= result.address < hi
            assert result.band == allocator.partition_map.band_of(ttl)

    def test_different_ttls_never_collide_in_seven_band(self, rng):
        allocator = StaticIprmaAllocator.seven_band(700, rng)
        addresses = {}
        for ttl in PAPER_TTLS:
            for __ in range(30):
                a = allocator.allocate(ttl, visible_of([])).address
                addresses.setdefault(ttl, set()).add(a)
        for t1 in PAPER_TTLS:
            for t2 in PAPER_TTLS:
                if t1 != t2:
                    assert not (addresses[t1] & addresses[t2])

    def test_three_band_conflates_47_and_63(self, rng):
        allocator = StaticIprmaAllocator.three_band(300, rng)
        assert allocator.band_range(47) == allocator.band_range(63)

    def test_informed_within_band(self, rng):
        allocator = StaticIprmaAllocator.three_band(30, rng)
        lo, hi = allocator.band_range(63)
        visible = visible_of([(a, 63) for a in range(lo, hi - 1)])
        result = allocator.allocate(63, visible)
        assert result.address == hi - 1

    def test_band_full_forces_within_band(self, rng):
        allocator = StaticIprmaAllocator.three_band(30, rng)
        lo, hi = allocator.band_range(63)
        visible = visible_of([(a, 63) for a in range(lo, hi)])
        result = allocator.allocate(63, visible)
        assert result.forced
        assert lo <= result.address < hi


class TestAdaptiveIprma:
    def test_empty_world_bands_cluster_at_top(self, rng):
        allocator = AdaptiveIprmaAllocator.aipr1(1000, rng=rng)
        geometry = allocator.band_geometry(visible_of([]))
        assert len(geometry) == 7
        # Every initial band is a single address near the top.
        for lo, hi in geometry:
            assert hi - lo == 1
        assert geometry[-1] == (999, 1000)
        # Bands ordered: lower-TTL bands sit below higher-TTL bands.
        for (lo_a, hi_a), (lo_b, hi_b) in zip(geometry, geometry[1:]):
            assert hi_a <= lo_b

    def test_band_grows_with_occupancy(self, rng):
        allocator = AdaptiveIprmaAllocator.aipr1(1000, rng=rng)
        visible = visible_of([(900 + i, 63) for i in range(20)])
        geometry = allocator.band_geometry(visible)
        band = allocator.partition_map.band_of(63)
        lo, hi = geometry[band]
        # ceil(20 / 0.67) = 30.
        assert hi - lo == 30

    def test_geometry_uses_only_higher_or_equal_ttls(self, rng):
        """The deterministic invariant (fig. 8): lower-TTL sessions do
        not perturb the geometry of a higher band."""
        allocator = AdaptiveIprmaAllocator.aipr1(1000, rng=rng)
        high_only = visible_of([(990, 127), (991, 127)])
        with_low = visible_of([(990, 127), (991, 127)] +
                              [(10 + i, 1) for i in range(50)])
        band_127 = allocator.partition_map.band_of(127)
        geo_high = allocator.band_geometry(high_only, 64)
        geo_mixed = allocator.band_geometry(with_low, 64)
        assert geo_high[band_127] == geo_mixed[band_127]

    def test_allocation_within_band_geometry(self, rng):
        allocator = AdaptiveIprmaAllocator.aipr3(500, rng=rng)
        visible = visible_of([(480 + i, 191) for i in range(10)])
        result = allocator.allocate(127, visible)
        geometry = allocator.band_geometry(visible, 64)
        band = allocator.partition_map.band_of(127)
        lo, hi = geometry[band]
        assert lo <= result.address < hi

    def test_gap_fraction_spreads_bands(self, rng):
        tight = AdaptiveIprmaAllocator(1000, gap_fraction=0.2, rng=rng)
        loose = AdaptiveIprmaAllocator(1000, gap_fraction=0.7, rng=rng)
        geo_tight = tight.band_geometry(visible_of([]))
        geo_loose = loose.band_geometry(visible_of([]))
        span_tight = geo_tight[-1][1] - geo_tight[0][0]
        span_loose = geo_loose[-1][1] - geo_loose[0][0]
        assert span_loose > span_tight

    def test_collapse_at_overload_still_allocates(self, rng):
        allocator = AdaptiveIprmaAllocator.aipr1(20, rng=rng)
        visible = visible_of([(i % 20, 191) for i in range(60)])
        result = allocator.allocate(1, visible)
        assert 0 <= result.address < 20

    def test_invalid_params_rejected(self, rng):
        with pytest.raises(ValueError):
            AdaptiveIprmaAllocator(100, gap_fraction=1.0, rng=rng)
        with pytest.raises(ValueError):
            AdaptiveIprmaAllocator(100, occupancy=0.0, rng=rng)

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 999),
                              st.sampled_from(PAPER_TTLS)),
                    max_size=60),
           st.sampled_from(PAPER_TTLS))
    def test_property_bands_never_overlap(self, pairs, ttl):
        allocator = AdaptiveIprmaAllocator.aipr1(
            1000, rng=np.random.default_rng(0)
        )
        geometry = allocator.band_geometry(visible_of(pairs))
        for (lo_a, hi_a), (lo_b, hi_b) in zip(geometry, geometry[1:]):
            assert hi_a <= lo_b or lo_a == 0  # only bottom-collapse overlaps


class TestHybridIprma:
    def test_initial_layout_occupies_top_half(self, rng):
        allocator = HybridIprmaAllocator(1000, rng=rng)
        geometry = allocator.band_geometry(visible_of([]))
        assert geometry[-1][1] == 1000
        # The lowest band's bottom stays in the upper half initially.
        assert geometry[0][0] >= 250

    def test_pushed_band_shrinks(self, rng):
        allocator = HybridIprmaAllocator(1000, rng=rng)
        # Load the top band heavily so it pushes the band below.
        visible = visible_of([(999 - i, 191) for i in range(100)])
        geometry = allocator.band_geometry(visible)
        top = geometry[-1]
        below = geometry[-2]
        assert top[1] - top[0] >= 100
        assert below[1] <= top[0]

    def test_unpushed_band_keeps_initial_width(self, rng):
        allocator = HybridIprmaAllocator(1000, rng=rng)
        geometry = allocator.band_geometry(visible_of([]))
        widths = [hi - lo for lo, hi in geometry]
        assert all(w == allocator.initial_width for w in widths)

    def test_allocates_in_correct_band(self, rng):
        allocator = HybridIprmaAllocator(1000, rng=rng)
        result = allocator.allocate(15, visible_of([]))
        band = allocator.partition_map.band_of(15)
        lo, hi = allocator.band_geometry(visible_of([]))[band]
        assert lo <= result.address < hi

    def test_invalid_span_rejected(self, rng):
        with pytest.raises(ValueError):
            HybridIprmaAllocator(1000, gap_fraction=0.6,
                                 initial_span=0.5, rng=rng)
