"""mcollect emulator tests."""

import numpy as np
import pytest

from repro.topology.mcollect import McollectProbe


class TestFullCollection:
    def test_perfect_walk_recovers_everything(self, small_mbone):
        probe = McollectProbe(small_mbone, unreachable_fraction=0.0,
                              rng=np.random.default_rng(0))
        collected = probe.collect(monitor=0)
        assert collected.num_nodes == small_mbone.num_nodes
        assert collected.num_links == small_mbone.num_links

    def test_attributes_preserved(self, small_mbone):
        probe = McollectProbe(small_mbone, rng=np.random.default_rng(0))
        collected = probe.collect(monitor=0)
        census_truth = sorted(
            (l.metric, l.threshold) for l in small_mbone.links()
        )
        census_map = sorted(
            (l.metric, l.threshold) for l in collected.links()
        )
        assert census_truth == census_map


class TestPartialCollection:
    def test_silent_mrouters_reduce_coverage(self, small_mbone):
        probe = McollectProbe(small_mbone, unreachable_fraction=0.3,
                              rng=np.random.default_rng(1))
        collected = probe.collect(monitor=0)
        assert collected.num_nodes < small_mbone.num_nodes
        assert 0.1 < collected.num_nodes / small_mbone.num_nodes < 1.0

    def test_result_is_connected(self, small_mbone):
        """The paper's cleanup: disconnected subtrees removed."""
        for seed in range(4):
            probe = McollectProbe(small_mbone,
                                  unreachable_fraction=0.25,
                                  rng=np.random.default_rng(seed))
            collected = probe.collect(monitor=0)
            assert collected.is_connected()

    def test_coverage_degrades_with_unreachable_fraction(self,
                                                         small_mbone):
        coverages = []
        for fraction in (0.0, 0.2, 0.5):
            probe = McollectProbe(small_mbone,
                                  unreachable_fraction=fraction,
                                  rng=np.random.default_rng(7))
            collected = probe.collect(monitor=0)
            coverages.append(collected.num_nodes / small_mbone.num_nodes)
        assert coverages[0] == 1.0
        assert coverages[0] >= coverages[1] >= coverages[2]

    def test_silent_leaf_still_mapped_via_neighbor(self):
        """A silent mrouter is visible on the map (its responding
        neighbour reports the link) but nothing behind it is."""
        from repro.topology.graph import Topology
        chain = Topology()
        for __ in range(4):
            chain.add_node()
        chain.add_link(0, 1)
        chain.add_link(1, 2)
        chain.add_link(2, 3)
        probe = McollectProbe(chain, unreachable_fraction=0.0,
                              rng=np.random.default_rng(0))
        # Force node 2 silent.
        probe._choose_silent = lambda monitor: {2}
        collected = probe.collect(monitor=0)
        # Node 2 appears (link 1-2 reported by 1) but 3 is invisible.
        assert collected.num_nodes == 3
        assert collected.num_links == 2

    def test_invalid_fraction(self, small_mbone):
        with pytest.raises(ValueError):
            McollectProbe(small_mbone, unreachable_fraction=1.0,
                          rng=np.random.default_rng(0))
