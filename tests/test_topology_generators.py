"""Mbone and Doar generator tests."""

from collections import Counter

import numpy as np
import pytest

from repro.topology.doar import DoarParams, generate_doar
from repro.topology.graph import DVMRP_INFINITY
from repro.topology.mbone import (
    COUNTRY_THRESHOLD,
    EUROPE_COUNTRY_THRESHOLD,
    SITE_THRESHOLD,
    MboneParams,
    generate_mbone,
)


class TestMboneGenerator:
    def test_node_count_near_target(self, small_mbone):
        assert 130 <= small_mbone.num_nodes <= 180

    def test_connected(self, small_mbone):
        assert small_mbone.is_connected()

    def test_deterministic_for_seed(self):
        a = generate_mbone(MboneParams(total_nodes=100, seed=5))
        b = generate_mbone(MboneParams(total_nodes=100, seed=5))
        assert a.num_nodes == b.num_nodes
        assert [(l.u, l.v, l.metric, l.threshold) for l in a.links()] == \
               [(l.u, l.v, l.metric, l.threshold) for l in b.links()]

    def test_different_seeds_differ(self):
        a = generate_mbone(MboneParams(total_nodes=100, seed=5))
        b = generate_mbone(MboneParams(total_nodes=100, seed=6))
        edges_a = [(l.u, l.v) for l in a.links()]
        edges_b = [(l.u, l.v) for l in b.links()]
        assert edges_a != edges_b

    def test_boundary_policy_thresholds_present(self, small_mbone):
        census = Counter(link.threshold for link in small_mbone.links())
        assert SITE_THRESHOLD in census
        assert EUROPE_COUNTRY_THRESHOLD in census
        assert COUNTRY_THRESHOLD in census
        assert 1 in census
        # Plain links dominate.
        assert census[1] > census[SITE_THRESHOLD]

    def test_europe_borders_at_48_only_in_europe(self, small_mbone):
        for link in small_mbone.links():
            if link.threshold == EUROPE_COUNTRY_THRESHOLD:
                labels = (small_mbone.label(link.u) or "",
                          small_mbone.label(link.v) or "")
                assert any("europe" in label for label in labels)

    def test_metrics_below_dvmrp_infinity(self, small_mbone):
        assert all(l.metric < DVMRP_INFINITY for l in small_mbone.links())

    def test_labels_encode_hierarchy(self, small_mbone):
        hubs = [n for n in small_mbone.nodes()
                if (small_mbone.label(n) or "").endswith("/hub")]
        assert len(hubs) == 4

    def test_too_small_target_rejected(self):
        with pytest.raises(ValueError):
            MboneParams(total_nodes=10)

    def test_full_default_size(self):
        topo = generate_mbone(MboneParams(total_nodes=1864, seed=1998))
        assert abs(topo.num_nodes - 1864) < 40
        assert topo.is_connected()


class TestDoarGenerator:
    def test_basic_shape(self, small_doar):
        topo = small_doar.topology
        assert topo.num_nodes == 300
        assert topo.is_connected()
        # Tree links plus the redundant ones for nodes n/30..n/20.
        assert topo.num_links >= 299
        assert topo.num_links <= 299 + (300 // 20 - 300 // 30) + 2

    def test_tree_edges_form_spanning_tree(self, small_doar):
        assert len(small_doar.tree_edges) == 299
        tree = small_doar.shared_tree()
        assert tree.num_nodes == 300

    def test_tree_edge_connects_to_nearest_neighbor(self):
        doar = generate_doar(DoarParams(num_nodes=40, seed=3,
                                        redundant_links=False))
        coords = doar.coordinates
        for parent, child in doar.tree_edges:
            assert parent < child  # connected to a pre-existing node
            dist = np.hypot(*(coords[child] - coords[parent]))
            earlier = coords[:child]
            best = np.min(np.hypot(earlier[:, 0] - coords[child, 0],
                                   earlier[:, 1] - coords[child, 1]))
            assert dist == pytest.approx(best)

    def test_no_redundant_links_option(self):
        doar = generate_doar(DoarParams(num_nodes=100, seed=1,
                                        redundant_links=False))
        assert doar.topology.num_links == 99

    def test_delays_scale_with_distance(self, small_doar):
        params = DoarParams(num_nodes=2)
        topo = small_doar.topology
        coords = small_doar.coordinates
        for link in topo.links():
            dist = float(np.hypot(*(coords[link.u] - coords[link.v])))
            expected = params.min_delay + dist * params.delay_scale
            assert link.delay == pytest.approx(expected)

    def test_deterministic(self):
        a = generate_doar(DoarParams(num_nodes=80, seed=9))
        b = generate_doar(DoarParams(num_nodes=80, seed=9))
        assert a.tree_edges == b.tree_edges

    def test_too_few_nodes_rejected(self):
        with pytest.raises(ValueError):
            DoarParams(num_nodes=1)

    def test_invalid_delay_scale_rejected(self):
        with pytest.raises(ValueError):
            DoarParams(num_nodes=10, delay_scale=0.0)
