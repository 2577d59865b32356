"""TTL scoping (ScopeMap) tests — the heart of the reproduction."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.scoping import UNREACHABLE_TTL, ScopeMap
from repro.topology.graph import Topology


class TestChainScoping:
    """The deterministic chain fixture: need[0] = [0, 2, 18, 18, 68]."""

    def test_need_from_node0(self, chain_scope_map):
        assert chain_scope_map.need[0].tolist() == [0, 2, 18, 18, 68]

    def test_need_from_node4(self, chain_scope_map):
        # From 4: hop1 crosses the 64-threshold: need 65; then 16
        # threshold at hop 3 gives max(65, 16+3)=65; plain links +hops.
        assert chain_scope_map.need[4].tolist() == [65, 65, 65, 65, 0]

    def test_asymmetry(self, chain_scope_map):
        """Fig. 9: thresholds not equidistant => asymmetric scoping."""
        need = chain_scope_map.need
        assert need[0, 4] == 68
        assert need[4, 0] == 65
        assert need[0, 4] != need[4, 0]

    def test_reachable_masks(self, chain_scope_map):
        assert chain_scope_map.reachable(0, 1).tolist() == [
            True, False, False, False, False
        ]
        assert chain_scope_map.reachable(0, 2).tolist() == [
            True, True, False, False, False
        ]
        assert chain_scope_map.reachable(0, 18).tolist() == [
            True, True, True, True, False
        ]
        assert chain_scope_map.reachable(0, 255).tolist() == [
            True, True, True, True, True
        ]

    def test_can_hear(self, chain_scope_map):
        assert chain_scope_map.can_hear(listener=3, source=0, ttl=18)
        assert not chain_scope_map.can_hear(listener=3, source=0, ttl=17)

    def test_scopes_overlap(self, chain_scope_map):
        # Both local around node 0/1: overlap.
        assert chain_scope_map.scopes_overlap(0, 2, 1, 2)
        # Node 0 with ttl 2 reaches {0,1}; node 4 with ttl 64 reaches
        # only {4}: no overlap.
        assert not chain_scope_map.scopes_overlap(0, 2, 4, 64)
        # Node 4 with ttl 65 reaches everything: overlap with anything.
        assert chain_scope_map.scopes_overlap(0, 2, 4, 65)

    def test_scope_size(self, chain_scope_map):
        assert chain_scope_map.scope_size(0, 2) == 2
        assert chain_scope_map.scope_size(0, 255) == 5

    def test_reachable_cached_and_readonly(self, chain_scope_map):
        mask = chain_scope_map.reachable(0, 18)
        assert chain_scope_map.reachable(0, 18) is mask
        with pytest.raises(ValueError):
            mask[0] = False


class TestScopeMapGeneral:
    def test_diagonal_zero(self, small_scope_map):
        assert (np.diag(small_scope_map.need) == 0).all()

    def test_need_within_ttl_bounds_when_connected(self, small_scope_map):
        off_diag = small_scope_map.need + np.eye(
            small_scope_map.num_nodes, dtype=small_scope_map.need.dtype
        )
        assert (off_diag > 0).all()
        assert small_scope_map.need.max() < UNREACHABLE_TTL

    def test_monotone_in_ttl(self, small_scope_map):
        """Raising TTL never shrinks the reach set."""
        for source in (0, 5, 17):
            smaller = small_scope_map.reachable(source, 15)
            bigger = small_scope_map.reachable(source, 63)
            assert not np.any(smaller & ~bigger)

    def test_ttl_one_reaches_only_plain_neighbors(self, small_scope_map):
        # TTL 1: packet dies at the first hop (decrement to 0 < any
        # threshold >= 1 fails: t-k >= theta needs 1-1 >= 1 false).
        for source in (0, 3):
            mask = small_scope_map.reachable(source, 1)
            assert mask.sum() == 1  # only the source itself

    def test_disconnected_pair_unreachable(self):
        topo = Topology()
        topo.add_node()
        topo.add_node()
        scope = ScopeMap.from_topology(topo)
        assert scope.need[0, 1] == UNREACHABLE_TTL
        assert not scope.can_hear(1, 0, 255)

    def test_non_square_rejected(self):
        with pytest.raises(ValueError):
            ScopeMap(np.zeros((2, 3), dtype=np.int16))

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31))
    def test_property_need_equals_path_walk(self, seed):
        """need[s, v] computed by matrix iteration equals an explicit
        walk over the shortest-path tree."""
        rng = np.random.default_rng(seed)
        n = 12
        topo = Topology()
        for __ in range(n):
            topo.add_node()
        thresholds = [1, 1, 1, 16, 48, 64]
        for i in range(1, n):
            parent = int(rng.integers(0, i))
            topo.add_link(parent, i, metric=int(rng.integers(1, 4)),
                          threshold=int(rng.choice(thresholds)))
        scope = ScopeMap.from_topology(topo)

        from repro.routing.spt import ShortestPathForest
        forest = ShortestPathForest(topo, "metric")
        for source in range(0, n, 3):
            tree = forest.tree(source)
            for node in range(n):
                path = tree.path(node)
                expected = 0
                for hop, (u, v) in enumerate(zip(path, path[1:]), start=1):
                    theta = topo.link(u, v).threshold
                    expected = max(expected, theta + hop)
                assert scope.need[source, node] == expected
