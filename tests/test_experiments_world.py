"""AllocationWorld tests."""

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.partitions import IPR7_EDGES, PartitionMap
from repro.core.session import Session
from repro.experiments.world import MAX_LIVE_SESSIONS, AllocationWorld

SPACE = 32
IPR7 = PartitionMap(IPR7_EDGES)


def used(view):
    """The addresses of the space that ``view`` reports in use."""
    free = set(view.free_offsets(0, SPACE).tolist())
    return [address for address in range(SPACE) if address not in free]


class TestAllocationWorld:
    def test_add_and_visible(self, chain_scope_map):
        world = AllocationWorld(chain_scope_map, SPACE)
        world.add(Session(address=5, ttl=18, source=0))
        world.add(Session(address=6, ttl=2, source=0))
        # Node 3 is inside the ttl-18 scope of node 0 but not ttl-2.
        visible = world.visible_at(3)
        assert used(visible) == [5]
        assert len(visible) == 1
        assert visible.band_counts(IPR7, 1) == [0, 0, 1, 0, 0, 0, 0]
        # Node 1 sees both.
        assert used(world.visible_at(1)) == [5, 6]
        assert world.visible_at(1).band_counts(IPR7, 1) == [
            0, 1, 1, 0, 0, 0, 0]
        assert world.visible_at(1).band_counts(IPR7, 16) == [
            0, 0, 1, 0, 0, 0, 0]

    def test_clash_detection(self, chain_scope_map):
        world = AllocationWorld(chain_scope_map, SPACE)
        world.add(Session(address=5, ttl=18, source=0))
        assert world.clashes(Session(address=5, ttl=18, source=1))
        assert not world.clashes(Session(address=9, ttl=18, source=1))
        # Disjoint scopes, same address: no clash.
        assert not world.clashes(Session(address=5, ttl=64, source=4))

    def test_remove_swaps_last(self, chain_scope_map):
        world = AllocationWorld(chain_scope_map, SPACE)
        a = Session(address=1, ttl=18, source=0)
        b = Session(address=2, ttl=18, source=1)
        c = Session(address=3, ttl=18, source=2)
        for s in (a, b, c):
            world.add(s)
        removed = world.remove_at(0)
        assert removed is a
        assert len(world) == 2
        assert used(world.visible_at(1)) == [2, 3]
        # Clash bookkeeping still correct after the swap.
        assert world.clashes(Session(address=3, ttl=18, source=0))
        assert not world.clashes(Session(address=1, ttl=18, source=0))

    def test_a_view_answers_for_the_world_as_it_is_now(
            self, chain_scope_map):
        world = AllocationWorld(chain_scope_map, SPACE)
        view = world.visible_at(1)
        assert used(view) == []
        assert view.band_counts(IPR7, 1) == [0] * IPR7.num_bands
        slot = world.add(Session(address=5, ttl=18, source=0))
        world.add(Session(address=6, ttl=2, source=0))
        # Handed out before both adds, the view sees them, and the
        # node is handed that one view from then on.
        assert world.visible_at(1) is view
        assert used(view) == [5, 6]
        assert len(view) == 2
        assert view.band_counts(IPR7, 1) == [0, 1, 1, 0, 0, 0, 0]
        assert view.free_offsets(4, 8).tolist() == [0, 3]
        world.remove_at(slot)
        assert used(view) == [6]
        assert len(view) == 1
        assert view.band_counts(IPR7, 1) == [0, 1, 0, 0, 0, 0, 0]
        assert view.free_offsets(4, 8).tolist() == [0, 1, 3]

    def test_worlds_over_one_scope_map_share_no_view(
            self, chain_scope_map):
        first = AllocationWorld(chain_scope_map, SPACE)
        second = AllocationWorld(chain_scope_map, SPACE)
        nodes = range(chain_scope_map.num_nodes)
        views = ([first.visible_at(node) for node in nodes]
                 + [second.visible_at(node) for node in nodes])
        assert len({id(view) for view in views}) == len(views)
        first.add(Session(address=5, ttl=255, source=0))
        second.add(Session(address=9, ttl=2, source=0))
        assert [used(first.visible_at(node)) for node in nodes] == [
            [5]] * 5
        assert [used(second.visible_at(node)) for node in nodes] == [
            [9], [9], [], [], []]
        assert [len(second.visible_at(node)) for node in nodes] == [
            1, 1, 0, 0, 0]

    def test_remove_out_of_range(self, chain_scope_map):
        world = AllocationWorld(chain_scope_map, SPACE)
        with pytest.raises(IndexError):
            world.remove_at(0)

    def test_add_refuses_a_count_int16_cannot_hold(self, chain_scope_map):
        world = AllocationWorld(chain_scope_map, 1)
        for __ in range(MAX_LIVE_SESSIONS):
            world.add(Session(address=0, ttl=255, source=0))
        assert world.visible_at(4).free_offsets(0, 1).tolist() == []
        with pytest.raises(OverflowError):
            world.add(Session(address=0, ttl=255, source=0))
        assert len(world) == MAX_LIVE_SESSIONS
        world.remove_at(0)
        assert len(world.visible_at(4)) == MAX_LIVE_SESSIONS - 1

    def test_address_outside_the_space_is_refused(self, chain_scope_map):
        world = AllocationWorld(chain_scope_map, SPACE)
        with pytest.raises(IndexError):
            world.add(Session(address=SPACE, ttl=18, source=0))
        assert len(world) == 0
        assert used(world.visible_at(0)) == []

    def test_random_slot(self, chain_scope_map, rng):
        world = AllocationWorld(chain_scope_map, SPACE)
        with pytest.raises(ValueError):
            world.random_slot(rng)
        world.add(Session(address=1, ttl=18, source=0))
        assert world.random_slot(rng) == 0

    # The scope map is immutable, so sharing it across examples is safe.
    @settings(max_examples=20, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(st.integers(0, 4), st.sampled_from(
        [2, 18, 68, 255]), st.integers(0, 30)), min_size=1, max_size=40),
        st.integers(0, 4))
    def test_property_visibility_matches_bruteforce(self, chain_scope_map,
                                                    triples, node):
        world = AllocationWorld(chain_scope_map, SPACE)
        sessions = []
        for source, ttl, address in triples:
            s = Session(address=address, ttl=ttl, source=source)
            world.add(s)
            sessions.append(s)
        visible = world.visible_at(node)
        heard = [s for s in sessions
                 if chain_scope_map.can_hear(node, s.source, s.ttl)]
        heard_addresses = {s.address for s in heard}
        assert visible.free_offsets(0, SPACE).tolist() == [
            address for address in range(SPACE)
            if address not in heard_addresses]
        assert len(visible) == len(heard)
        heard_bands = [IPR7.band_of(s.ttl) for s in heard]
        assert visible.band_counts(IPR7, 1) == [
            heard_bands.count(band) for band in range(IPR7.num_bands)]
