"""Topology graph tests."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.topology.graph import DVMRP_INFINITY, Link, Topology


class TestLink:
    def test_attributes(self):
        link = Link(0, 1, metric=3, threshold=64, delay=0.05)
        assert (link.u, link.v) == (0, 1)
        assert (link.metric, link.threshold, link.delay) == (3, 64, 0.05)

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError):
            Link(2, 2)

    def test_metric_bounds(self):
        with pytest.raises(ValueError):
            Link(0, 1, metric=0)
        with pytest.raises(ValueError):
            Link(0, 1, metric=DVMRP_INFINITY)

    def test_threshold_bounds(self):
        with pytest.raises(ValueError):
            Link(0, 1, threshold=0)
        with pytest.raises(ValueError):
            Link(0, 1, threshold=256)

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            Link(0, 1, delay=-0.1)


class TestTopology:
    def test_add_nodes_sequential_ids(self):
        topo = Topology()
        assert [topo.add_node() for __ in range(3)] == [0, 1, 2]
        assert topo.num_nodes == 3

    def test_add_link_and_query(self):
        topo = Topology()
        topo.add_node()
        topo.add_node()
        topo.add_link(0, 1, metric=2, threshold=16, delay=0.01)
        link = topo.link(0, 1)
        assert link.metric == 2
        assert link.threshold == 16
        assert topo.link(1, 0) is link
        assert topo.has_link(0, 1)
        assert topo.num_links == 1

    def test_link_replacement_does_not_double_count(self):
        topo = Topology()
        topo.add_node()
        topo.add_node()
        topo.add_link(0, 1, metric=1)
        topo.add_link(0, 1, metric=5)
        assert topo.num_links == 1
        assert topo.link(0, 1).metric == 5

    def test_unknown_node_raises(self):
        topo = Topology()
        topo.add_node()
        with pytest.raises(KeyError):
            topo.add_link(0, 7)
        with pytest.raises(KeyError):
            topo.neighbors(9)

    def test_missing_link_raises(self):
        topo = Topology()
        topo.add_node()
        topo.add_node()
        with pytest.raises(KeyError):
            topo.link(0, 1)

    def test_neighbors_and_degree(self):
        topo = Topology()
        for __ in range(4):
            topo.add_node()
        topo.add_link(0, 1)
        topo.add_link(0, 2)
        assert sorted(topo.neighbors(0)) == [1, 2]
        assert topo.degree(0) == 2
        assert topo.degree(3) == 0

    def test_links_iterates_each_once(self):
        topo = Topology()
        for __ in range(3):
            topo.add_node()
        topo.add_link(0, 1)
        topo.add_link(1, 2)
        assert len(list(topo.links())) == 2

    def test_labels_and_positions(self):
        topo = Topology()
        node = topo.add_node(position=(1.0, 2.0), label="hub")
        assert topo.position(node) == (1.0, 2.0)
        assert topo.label(node) == "hub"

    def test_connectivity(self):
        topo = Topology()
        for __ in range(4):
            topo.add_node()
        topo.add_link(0, 1)
        topo.add_link(2, 3)
        assert not topo.is_connected()
        topo.add_link(1, 2)
        assert topo.is_connected()

    def test_empty_topology_connected(self):
        assert Topology().is_connected()

    def test_largest_connected_subgraph(self):
        topo = Topology()
        for __ in range(6):
            topo.add_node(label=f"n{__}" if False else None)
        # Component A: 0-1-2, component B: 3-4 (node 5 isolated).
        topo.add_link(0, 1, metric=2, threshold=16, delay=0.5)
        topo.add_link(1, 2)
        topo.add_link(3, 4)
        sub = topo.largest_connected_subgraph()
        assert sub.num_nodes == 3
        assert sub.num_links == 2
        assert sub.is_connected()
        # Attributes preserved.
        assert sub.link(0, 1).threshold == 16
        assert sub.link(0, 1).delay == 0.5

    def test_edge_arrays_roundtrip(self):
        topo = Topology()
        for __ in range(3):
            topo.add_node()
        topo.add_link(0, 1, metric=2, threshold=48, delay=0.25)
        topo.add_link(1, 2, metric=3, threshold=1, delay=0.5)
        us, vs, metrics, thresholds, delays = topo.edge_arrays()
        assert us.tolist() == [0, 1]
        assert vs.tolist() == [1, 2]
        assert metrics.tolist() == [2, 3]
        assert thresholds.tolist() == [48, 1]
        assert np.allclose(delays, [0.25, 0.5])

    @given(st.integers(min_value=2, max_value=30), st.integers(0, 2 ** 31))
    def test_property_random_tree_is_connected(self, n, seed):
        rng = np.random.default_rng(seed)
        topo = Topology()
        for __ in range(n):
            topo.add_node()
        for i in range(1, n):
            topo.add_link(int(rng.integers(0, i)), i)
        assert topo.is_connected()
        assert topo.num_links == n - 1
