"""Original (fig. 7) adaptive IPRMA tests — including its failure."""

import pytest

from repro.core.adaptive import AdaptiveIprmaAllocator
from repro.core.adaptive_legacy import LegacyAdaptiveIprmaAllocator
from repro.core.allocator import OccupancyView

PAPER_TTLS = (1, 15, 31, 47, 63, 127, 191)


def visible_of(pairs, space_size=700):
    return OccupancyView.from_pairs([a for a, __ in pairs],
                                    [t for __, t in pairs], space_size)


class TestLegacyGeometry:
    def test_empty_world_even_partitions(self, rng):
        allocator = LegacyAdaptiveIprmaAllocator(700, mode="push",
                                                 rng=rng)
        geometry = allocator.band_geometry(visible_of([]))
        widths = [hi - lo for lo, hi in geometry]
        assert len(geometry) == 7
        assert all(w == 100 for w in widths)
        assert geometry[0][0] == 0
        assert geometry[-1][1] == 700

    def test_push_mode_band_grows_and_pushes(self, rng):
        allocator = LegacyAdaptiveIprmaAllocator(700, mode="push",
                                                 rng=rng)
        # Load band for TTL 47 far beyond its 100-address default.
        visible = visible_of([(300 + i, 47) for i in range(150)])
        geometry = allocator.band_geometry(visible)
        band = allocator.partition_map.band_of(47)
        lo, hi = geometry[band]
        assert hi - lo >= 223  # ceil(150/0.67)
        # Higher bands got pushed upwards, still ordered and disjoint.
        for (a_lo, a_hi), (b_lo, b_hi) in zip(geometry, geometry[1:]):
            assert a_hi <= b_lo or b_hi == 700

    def test_proportional_mode_tracks_counts(self, rng):
        allocator = LegacyAdaptiveIprmaAllocator(700, mode="proportional",
                                                 rng=rng)
        visible = visible_of([(i, 127) for i in range(60)])
        geometry = allocator.band_geometry(visible)
        band = allocator.partition_map.band_of(127)
        widths = [hi - lo for lo, hi in geometry]
        assert widths[band] > max(
            w for i, w in enumerate(widths) if i != band
        )
        assert geometry[0][0] == 0
        assert geometry[-1][1] == 700

    def test_allocates_in_own_band(self, rng):
        for mode in ("push", "proportional"):
            allocator = LegacyAdaptiveIprmaAllocator(700, mode=mode,
                                                     rng=rng)
            for ttl in PAPER_TTLS:
                result = allocator.allocate(ttl, visible_of([]))
                band = allocator.partition_map.band_of(ttl)
                lo, hi = allocator.band_geometry(visible_of([]))[band]
                assert lo <= result.address < hi

    def test_invalid_mode_rejected(self, rng):
        with pytest.raises(ValueError):
            LegacyAdaptiveIprmaAllocator(100, mode="magic", rng=rng)


class TestLegacyFailureMode:
    def test_geometry_depends_on_lower_ttl_counts(self, rng):
        """The documented flaw: lower-TTL sessions move higher bands —
        exactly what the deterministic variant forbids."""
        legacy = LegacyAdaptiveIprmaAllocator(700, mode="push", rng=rng)
        band_127 = legacy.partition_map.band_of(127)
        bare = legacy.band_geometry(visible_of([(650, 127)]))
        loaded = legacy.band_geometry(visible_of(
            [(650, 127)] + [(10 + i, 15) for i in range(200)]
        ))
        assert bare[band_127] != loaded[band_127]

    def test_deterministic_variant_immune(self, rng):
        deterministic = AdaptiveIprmaAllocator.aipr1(700, rng=rng)
        band_127 = deterministic.partition_map.band_of(127)
        lowest, __ = deterministic.partition_map.ttl_range(band_127)
        bare = deterministic.band_geometry(visible_of([(650, 127)]),
                                           lowest)
        loaded = deterministic.band_geometry(
            visible_of([(650, 127)] + [(10 + i, 15) for i in range(200)]),
            lowest,
        )
        assert bare[band_127] == loaded[band_127]

    def test_cross_site_divergence(self, rng):
        """Two sites with different *local* session views compute
        different geometry for the same high band under the legacy
        scheme — the root of fig. 7's clash scenario."""
        legacy = LegacyAdaptiveIprmaAllocator(700, mode="push", rng=rng)
        band_127 = legacy.partition_map.band_of(127)
        global_sessions = [(650 + i, 191) for i in range(5)]
        site_a_view = visible_of(global_sessions +
                                 [(10 + i, 15) for i in range(120)])
        site_b_view = visible_of(global_sessions)  # sees no locals
        geo_a = legacy.band_geometry(site_a_view)
        geo_b = legacy.band_geometry(site_b_view)
        assert geo_a[band_127] != geo_b[band_127]
