"""Depth tests: map-file property round-trips, directory internals,
hierarchical capacity monotonicity, scope-map cache behaviour."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.scaling import hierarchical_capacity
from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.sap.directory import SessionDirectory
from repro.sap.messages import SapMessage
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel
from repro.topology.graph import Topology
from repro.topology.mapfile import dump_map, parse_map


class TestMapfileProperties:
    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 2 ** 31), st.integers(2, 20))
    def test_property_random_topology_roundtrip(self, seed, n):
        rng = np.random.default_rng(seed)
        topo = Topology()
        for i in range(n):
            label = f"node-{i}" if rng.random() < 0.5 else None
            pos = ((float(rng.random()), float(rng.random()))
                   if rng.random() < 0.5 else None)
            topo.add_node(position=pos, label=label)
        for i in range(1, n):
            topo.add_link(
                int(rng.integers(0, i)), i,
                metric=int(rng.integers(1, 31)),
                threshold=int(rng.integers(1, 255)),
                delay=float(rng.random()),
            )
        again = parse_map(dump_map(topo))
        assert again.num_nodes == topo.num_nodes
        assert again.num_links == topo.num_links
        for link in topo.links():
            twin = again.link(link.u, link.v)
            assert twin.metric == link.metric
            assert twin.threshold == link.threshold
            assert twin.delay == link.delay
        for node in topo.nodes():
            assert again.label(node) == topo.label(node)


class TestScopeMapCaching:
    def test_reach_cache_is_keyed_by_source_and_ttl(self,
                                                    chain_scope_map):
        a = chain_scope_map.reachable(0, 18)
        b = chain_scope_map.reachable(0, 19)
        c = chain_scope_map.reachable(1, 18)
        assert a is chain_scope_map.reachable(0, 18)
        assert b is not a
        assert c is not a

    def test_overlap_uses_cached_masks(self, chain_scope_map):
        # Warm the cache, then ensure repeated queries agree.
        first = chain_scope_map.scopes_overlap(0, 18, 3, 18)
        second = chain_scope_map.scopes_overlap(0, 18, 3, 18)
        assert first == second == True  # noqa: E712


class TestHierarchicalCapacityShape:
    def test_monotone_in_prefix_timeliness(self):
        values = [
            hierarchical_capacity(
                prefix_i_fraction=f
            ).prefixes_usable
            for f in (1e-7, 1e-5, 1e-3)
        ]
        assert values == sorted(values, reverse=True)

    def test_prefix_size_tradeoff_exists(self):
        small = hierarchical_capacity(prefix_size=1000)
        large = hierarchical_capacity(prefix_size=100_000)
        # Bigger prefixes pack each prefix worse (fig. 6), smaller
        # prefixes need more prefix-layer slots; both configurations
        # remain far above flat allocation.
        assert small.total_sessions > 10 ** 6
        assert large.total_sessions > 10 ** 6


class TestDirectoryInternals:
    @pytest.fixture
    def world(self):
        space = MulticastAddressSpace.abstract(64)
        sched = EventScheduler()
        net = NetworkModel(sched,
                           lambda s, t: [(n, 0.01) for n in range(3)])

        def make(node):
            rng = np.random.default_rng(node)
            return SessionDirectory(
                node, sched, net,
                InformedRandomAllocator(space.size, rng), space,
                rng=rng,
            )

        return sched, net, space, make

    def test_message_key_tracks_description_changes(self, world):
        sched, net, space, make = world
        alice = make(0)
        alice.create_session("x", ttl=63)
        own = alice.own_sessions()[0]
        key_before = own.message_key()
        own.description.version += 1
        assert own.message_key() != key_before

    def test_owns_reflects_current_payload(self, world):
        sched, net, space, make = world
        alice = make(0)
        alice.create_session("x", ttl=63)
        own = alice.own_sessions()[0]
        assert alice.owns(own.message_key())
        assert not alice.owns((999, 1))

    def test_allocation_view_combines_cache_and_own(self, world):
        sched, net, space, make = world
        alice, bob = make(0), make(1)
        s1 = alice.create_session("a", ttl=63)
        sched.run(until=1.0)
        s2 = bob.create_session("b", ttl=63)
        view = bob._allocation_view()
        assert len(view) == 2
        free = set(view.free_offsets(0, space.size).tolist())
        assert set(range(space.size)) - free == {s1.address, s2.address}

    def test_expire_cache_drops_stale(self, world):
        sched, net, space, make = world
        alice, bob = make(0), make(1)
        alice.create_session("a", ttl=63)
        sched.run(until=1.0)
        alice.own_sessions()[0].announcer.stop()
        sched.run(until=5000.0)
        assert bob.expire_cache() == 1

    def test_retreat_supersedes_stale_cache_entry(self, world):
        """After a retreat, peers' caches must not keep the old
        address occupied (the supersession rule end-to-end)."""
        sched, net, space, make = world
        alice, bob, carol = make(0), make(1), make(2)
        session = alice.create_session("old", ttl=63)
        sched.run(until=40.0)
        newcomer = bob.create_session("new", ttl=63)
        own_bob = bob.own_sessions()[0]
        bob.relocate(own_bob, session.address)
        own_bob.description.version += 1
        own_bob.announcer.announce_now()
        sched.run(until=80.0)
        # Bob retreated; carol's cache has exactly one entry for bob's
        # session, at the new address.
        assert bob.address_changes == 1
        bob_entries = [
            e for e in carol.cache.entries()
            if e.message.origin == 1
        ]
        assert len(bob_entries) == 1
        assert bob_entries[0].address_index == \
            own_bob.session.address

    def test_unparseable_announcement_counted_not_cached(self, world):
        sched, net, space, make = world
        bob = make(1)
        from repro.sim.network import Packet
        bad = SapMessage.announce(0, "this is not sdp")
        net.send(Packet(source=0, group=0, ttl=63,
                        payload=bad.encode()))
        sched.run()
        assert bob.announcements_received == 1
        assert len(bob.cache) == 0
