"""Shared-tree and DVMRP delivery-tree tests."""

import numpy as np
import pytest

from repro.routing.forwarding import ForwardingEngine
from repro.routing.shared import SharedTree
from repro.topology.graph import Topology


@pytest.fixture
def y_tree():
    """A Y-shaped tree: 0-1, 1-2, 1-3, with known delays."""
    return SharedTree(4, [(0, 1, 0.1), (1, 2, 0.2), (1, 3, 0.3)], core=0)


class TestSharedTree:
    def test_delays_from_core(self, y_tree):
        delays = y_tree.delays_from(0)
        assert np.allclose(delays, [0.0, 0.1, 0.3, 0.4])

    def test_delays_from_leaf(self, y_tree):
        delays = y_tree.delays_from(2)
        assert np.allclose(delays, [0.3, 0.2, 0.0, 0.5])

    def test_delays_symmetric(self, y_tree):
        for u in range(4):
            du = y_tree.delays_from(u)
            for v in range(4):
                assert du[v] == pytest.approx(y_tree.delays_from(v)[u])

    def test_wrong_edge_count_rejected(self):
        with pytest.raises(ValueError):
            SharedTree(3, [(0, 1, 0.1)])

    def test_disconnected_rejected(self):
        with pytest.raises(ValueError):
            SharedTree(4, [(0, 1, 0.1), (0, 1, 0.2), (2, 3, 0.1)])

    def test_from_topology(self):
        topo = Topology()
        for __ in range(3):
            topo.add_node()
        topo.add_link(0, 1, delay=0.5)
        topo.add_link(1, 2, delay=0.25)
        tree = SharedTree.from_topology(topo, [(0, 1), (1, 2)], core=0)
        assert np.allclose(tree.delays_from(0), [0.0, 0.5, 0.75])

    def test_doar_shared_tree_delays_match_links(self, small_doar):
        tree = small_doar.shared_tree()
        topo = small_doar.topology
        delays = tree.delays_from(0)
        assert delays[0] == 0.0
        assert np.isfinite(delays).all()
        # A direct tree child of node 0 is exactly one link away.
        for parent, child in small_doar.tree_edges:
            if parent == 0:
                assert delays[child] == pytest.approx(
                    topo.link(0, child).delay
                )


class TestDvmrp:
    def test_delivery_children_form_the_tree(self, chain_topology):
        children = ForwardingEngine(chain_topology).delivery_children(0)
        assert children[0] == [1]
        assert children[1] == [2]
        assert children[2] == [3]
        assert children[3] == [4]
        assert children[4] == []

    def test_metric_infinity_unreachable(self):
        """Paths whose metric reaches 32 are DVMRP-unreachable."""
        topo = Topology()
        for __ in range(3):
            topo.add_node()
        topo.add_link(0, 1, metric=20)
        topo.add_link(1, 2, metric=20)
        engine = ForwardingEngine(topo)
        children = engine.delivery_children(0)
        assert children[1] == []  # node 2 pruned by infinity
        assert engine.reachable_set(0, 255) == {0, 1}
