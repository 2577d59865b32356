"""Packet-level forwarding tests + ScopeMap cross-validation."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.routing.forwarding import ForwardingEngine
from repro.routing.scoping import ScopeMap
from repro.topology.graph import Topology
from repro.topology.mbone import MboneParams, generate_mbone


class TestFlood:
    def test_chain_reachability(self, chain_topology):
        engine = ForwardingEngine(chain_topology)
        # need[0] = [0, 2, 18, 18, 68]
        assert engine.reachable_set(0, 1) == {0}
        assert engine.reachable_set(0, 2) == {0, 1}
        assert engine.reachable_set(0, 18) == {0, 1, 2, 3}
        assert engine.reachable_set(0, 68) == {0, 1, 2, 3, 4}

    def test_records_carry_hops_and_ttl(self, chain_topology):
        engine = ForwardingEngine(chain_topology)
        records = {r.node: r for r in engine.flood(0, 18)}
        assert records[0].hops == 0
        assert records[3].hops == 3
        assert records[3].remaining_ttl == 15
        assert records[1].remaining_ttl == 17

    def test_delivery_times_accumulate_link_delays(self, chain_topology):
        engine = ForwardingEngine(chain_topology)
        records = {r.node: r for r in engine.flood(0, 255)}
        assert records[1].at_time == pytest.approx(0.010)
        assert records[2].at_time == pytest.approx(0.030)
        assert records[4].at_time == pytest.approx(0.100)

    def test_ttl_zero(self, chain_topology):
        engine = ForwardingEngine(chain_topology)
        assert engine.reachable_set(0, 0) == {0}

    def test_invalid_ttl(self, chain_topology):
        engine = ForwardingEngine(chain_topology)
        with pytest.raises(ValueError):
            engine.flood(0, 256)

    def test_drop_counter(self, chain_topology):
        engine = ForwardingEngine(chain_topology)
        engine.flood(0, 2)
        assert engine.packets_dropped_ttl >= 1


class TestCrossValidation:
    def test_matches_scope_map_on_mbone(self):
        topo = generate_mbone(MboneParams(total_nodes=120, seed=9))
        scope_map = ScopeMap.from_topology(topo)
        engine = ForwardingEngine(topo)
        rng = np.random.default_rng(0)
        for __ in range(25):
            source = int(rng.integers(0, topo.num_nodes))
            ttl = int(rng.choice([1, 15, 31, 47, 63, 127, 191]))
            mechanism = engine.reachable_set(source, ttl)
            analysis = set(np.nonzero(scope_map.reachable(source,
                                                          ttl))[0])
            assert mechanism == analysis, (source, ttl)

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(2, 14))
    def test_property_matches_scope_map_random_trees(self, seed, n):
        """On random small trees the hop-by-hop mechanism and the
        vectorised analysis agree for every (source, ttl)."""
        rng = np.random.default_rng(seed)
        topo = Topology()
        for __ in range(n):
            topo.add_node()
        for i in range(1, n):
            topo.add_link(
                int(rng.integers(0, i)), i,
                metric=int(rng.integers(1, 3)),
                threshold=int(rng.choice([1, 1, 16, 48, 64])),
            )
        scope_map = ScopeMap.from_topology(topo)
        engine = ForwardingEngine(topo)
        for source in range(n):
            for ttl in (1, 5, 16, 17, 48, 66, 100, 255):
                mechanism = engine.reachable_set(source, ttl)
                analysis = set(np.nonzero(
                    scope_map.reachable(source, ttl)
                )[0])
                assert mechanism == analysis

