"""Administrative scoping tests (paper §1)."""

import numpy as np
import pytest

from repro.core.admin import AdminScopedAllocator
from repro.core.allocator import OccupancyView
from repro.routing.admin_scoping import (
    AdminScopeMap,
    ScopeZone,
    zones_from_labels,
)
from repro.topology.mbone import MboneParams, generate_mbone


@pytest.fixture
def two_zone_map():
    """10 nodes: zone A = {0..4}, zone B = {5..9}, same range 100..200
    (reuse), plus a nested campus zone {0, 1} on 200..210."""
    scope_map = AdminScopeMap(10)
    scope_map.add_zone(ScopeZone("west", frozenset(range(5)), 100, 200))
    scope_map.add_zone(ScopeZone("east", frozenset(range(5, 10)),
                                 100, 200))
    scope_map.add_zone(ScopeZone("campus", frozenset({0, 1}), 200, 210))
    return scope_map


class TestScopeZone:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScopeZone("empty", frozenset(), 0, 10)
        with pytest.raises(ValueError):
            ScopeZone("bad", frozenset({1}), 10, 10)
        with pytest.raises(ValueError):
            ScopeZone("bad", frozenset({1}), -1, 10)

    def test_membership(self):
        zone = ScopeZone("z", frozenset({1, 2}), 5, 9)
        assert zone.contains_node(1)
        assert not zone.contains_node(3)
        assert zone.contains_address(5)
        assert not zone.contains_address(9)
        assert zone.range_size == 4


class TestAdminScopeMap:
    def test_zones_of(self, two_zone_map):
        assert {z.name for z in two_zone_map.zones_of(0)} == \
            {"west", "campus"}
        assert {z.name for z in two_zone_map.zones_of(7)} == {"east"}

    def test_scoped_traffic_confined(self, two_zone_map):
        reach = two_zone_map.reachable(0, 150)
        assert reach[:5].all()
        assert not reach[5:].any()

    def test_unscoped_traffic_floods(self, two_zone_map):
        assert two_zone_map.reachable(0, 50).all()

    def test_symmetry_property(self, two_zone_map):
        """The paper's contrast with TTL scoping: admin scoping is
        symmetric."""
        for a in range(10):
            for b in range(10):
                for address in (150, 205, 50):
                    assert two_zone_map.reachable(a, address)[b] == \
                        two_zone_map.reachable(b, address)[a]

    def test_same_range_reuse_requires_disjoint(self):
        scope_map = AdminScopeMap(4)
        scope_map.add_zone(ScopeZone("a", frozenset({0, 1}), 0, 10))
        with pytest.raises(ValueError):
            scope_map.add_zone(ScopeZone("b", frozenset({1, 2}), 0, 10))
        scope_map.add_zone(ScopeZone("c", frozenset({2, 3}), 0, 10))

    def test_partial_range_overlap_rejected(self):
        scope_map = AdminScopeMap(4)
        scope_map.add_zone(ScopeZone("a", frozenset({0}), 0, 10))
        with pytest.raises(ValueError):
            scope_map.add_zone(ScopeZone("b", frozenset({1}), 5, 15))

    def test_member_out_of_range_rejected(self):
        scope_map = AdminScopeMap(3)
        with pytest.raises(ValueError):
            scope_map.add_zone(ScopeZone("a", frozenset({5}), 0, 10))


class TestZonesFromLabels:
    def test_country_zones_on_mbone(self):
        topo = generate_mbone(MboneParams(total_nodes=150, seed=42))
        zones = zones_from_labels(topo, prefix_depth=2,
                                  range_lo=0, range_hi=256)
        names = {z.name for z in zones}
        assert any("europe/uk" in n for n in names)
        assert any("north-america/usa" in n for n in names)
        # Zones partition the nodes (hubs form their own groups).
        total = sum(len(z.members) for z in zones)
        assert total == topo.num_nodes
        # All zones share the range and are disjoint: loadable.
        scope_map = AdminScopeMap(topo.num_nodes, zones)
        assert len(scope_map.zones) == len(zones)


def empty_view(space_size):
    return OccupancyView.from_pairs([], [], space_size)


class TestAdminScopedAllocator:
    def test_allocates_within_zone_range(self, two_zone_map, rng):
        allocator = AdminScopedAllocator(two_zone_map, node=7,
                                         space_size=300, rng=rng)
        for __ in range(30):
            result = allocator.allocate(63, empty_view(300))
            assert 100 <= result.address < 200

    def test_prefers_smallest_zone(self, two_zone_map, rng):
        allocator = AdminScopedAllocator(two_zone_map, node=0,
                                         space_size=300, rng=rng)
        result = allocator.allocate(63, empty_view(300))
        assert 200 <= result.address < 210  # campus, not west

    def test_full_packing_with_symmetric_visibility(self, two_zone_map):
        """The paper's claim: IR packs an admin zone completely."""
        rng = np.random.default_rng(0)
        allocator = AdminScopedAllocator(two_zone_map, node=7,
                                         space_size=300, rng=rng)
        used = []
        for __ in range(100):  # zone has exactly 100 addresses
            view = OccupancyView.from_pairs(used, [63] * len(used), 300)
            result = allocator.allocate(63, view)
            assert not result.forced
            assert result.address not in used
            used.append(result.address)
        assert len(set(used)) == 100

    def test_no_zone_falls_back_to_space(self, rng):
        scope_map = AdminScopeMap(3)
        allocator = AdminScopedAllocator(scope_map, node=0,
                                         space_size=50, rng=rng)
        result = allocator.allocate(63, empty_view(50))
        assert 0 <= result.address < 50
