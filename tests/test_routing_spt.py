"""Shortest-path tree / forest tests."""

import numpy as np
import pytest

from repro.routing.spt import (
    NO_PREDECESSOR,
    ShortestPathForest,
    topology_csr,
)
from repro.topology.graph import Topology


@pytest.fixture
def diamond():
    """0 - 1 - 3 and 0 - 2 - 3; metric favours the 0-2-3 path.

        metric(0,1)=5, metric(1,3)=5, metric(0,2)=1, metric(2,3)=1
        delay favours the 0-1-3 path instead.
    """
    topo = Topology()
    for __ in range(4):
        topo.add_node()
    topo.add_link(0, 1, metric=5, delay=0.001)
    topo.add_link(1, 3, metric=5, delay=0.001)
    topo.add_link(0, 2, metric=1, delay=0.5)
    topo.add_link(2, 3, metric=1, delay=0.5)
    return topo


class TestTopologyCsr:
    def test_symmetric(self, diamond):
        csr = topology_csr(diamond, "metric")
        dense = csr.toarray()
        assert np.allclose(dense, dense.T)
        assert dense[0, 1] == 5
        assert dense[0, 2] == 1

    def test_weights(self, diamond):
        by_delay = topology_csr(diamond, "delay").toarray()
        assert by_delay[0, 2] == 0.5
        by_hops = topology_csr(diamond, "hops").toarray()
        assert by_hops[0, 1] == 1

    def test_unknown_weight_rejected(self, diamond):
        with pytest.raises(ValueError):
            topology_csr(diamond, "bananas")


class TestShortestPathForest:
    def test_metric_routing_prefers_low_metric(self, diamond):
        forest = ShortestPathForest(diamond, "metric")
        tree = forest.tree(0)
        assert tree.path(3) == [0, 2, 3]
        assert tree.distance[3] == 2

    def test_delay_routing_prefers_low_delay(self, diamond):
        forest = ShortestPathForest(diamond, "delay")
        tree = forest.tree(0)
        assert tree.path(3) == [0, 1, 3]
        assert tree.distance[3] == pytest.approx(0.002)

    def test_tree_memoised(self, diamond):
        forest = ShortestPathForest(diamond)
        assert forest.tree(0) is forest.tree(0)

    def test_unreachable_path_raises(self):
        topo = Topology()
        topo.add_node()
        topo.add_node()
        topo.add_node()
        topo.add_link(0, 1)
        tree = ShortestPathForest(topo).tree(0)
        assert not tree.reachable()[2]
        with pytest.raises(ValueError):
            tree.path(2)

    def test_all_trees_matches_single_trees(self, diamond):
        forest = ShortestPathForest(diamond)
        pairs = forest.all_trees()
        for source in range(4):
            single = forest.tree(source)
            assert np.allclose(pairs.distance[source], single.distance)

    def test_hop_depths(self, diamond):
        pairs = ShortestPathForest(diamond).all_trees()
        depths = pairs.hop_depths()
        assert depths[0, 0] == 0
        assert depths[0, 2] == 1
        assert depths[0, 3] == 2

    def test_hop_depths_unreachable_is_minus_one(self):
        topo = Topology()
        for __ in range(3):
            topo.add_node()
        topo.add_link(0, 1)
        depths = ShortestPathForest(topo).all_trees().hop_depths()
        assert depths[0, 2] == -1
        assert depths[2, 0] == -1
        assert depths[2, 2] == 0

    def test_hop_depths_on_mbone(self, small_mbone):
        depths = ShortestPathForest(small_mbone).all_trees().hop_depths()
        n = small_mbone.num_nodes
        assert depths.shape == (n, n)
        assert (np.diag(depths) == 0).all()
        assert (depths >= 0).all()  # connected map
        # Hop depth differs from its transpose by at most tie-breaks,
        # but both directions must be positive and bounded.
        assert depths.max() < 64
