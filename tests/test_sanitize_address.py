"""AddressSanitizer: mutation tests for SAN201-SAN204.

The address space is the heap: allocate is malloc, withdrawal is free,
announcing a withdrawn session is use-after-free.  Each test injects
one such bug through the real directory/allocator/network paths and
asserts the sanitizer reports the right code; matching clean-path
tests pin down that the legitimate protocol behaviour (including
third-party proxy defence) stays silent.
"""

import numpy as np

from repro.core.address_space import MulticastAddressSpace
from repro.core.allocator import AllocationResult, Allocator, OccupancyView
from repro.core.informed import InformedRandomAllocator
from repro.core.session import Session
from repro.experiments.world import AllocationWorld
from repro.sanitize import SanitizerContext
from repro.sap.directory import SessionDirectory
from repro.sap.messages import SapMessage
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel, Packet

SPACE = 64
NODES = (0, 1, 2)


def full_mesh(source, ttl):
    return [(node, 0.01) for node in NODES if node != source]


def make_stack(context):
    scheduler = context.attach_scheduler(EventScheduler())
    network = context.attach_network(
        NetworkModel(scheduler, full_mesh)
    )
    return scheduler, network


def make_directory(context, scheduler, network, node):
    directory = SessionDirectory(
        node=node,
        scheduler=scheduler,
        network=network,
        allocator=InformedRandomAllocator(
            SPACE, np.random.default_rng(node)
        ),
        address_space=MulticastAddressSpace.abstract(SPACE),
        username=f"user{node}",
        rng=np.random.default_rng(100 + node),
    )
    return context.watch_directory(directory)


def view_of(addresses):
    """A view of TTL-127 sessions at ``addresses``."""
    return OccupancyView.from_pairs(addresses, [127] * len(addresses), SPACE)


def codes(context):
    return [violation.code for violation in context.violations]


class BlindAllocator(Allocator):
    """Claims informed allocation but returns a visibly used address:
    the lowest one its view does not report free (0 if all are)."""

    name = "blind"

    def allocate(self, ttl, visible):
        free = set(visible.free_offsets(0, self.space_size).tolist())
        address = next((address for address in range(self.space_size)
                        if address not in free), 0)
        return AllocationResult(address, band=None, informed=True,
                                forced=False)


class EscapingAllocator(Allocator):
    """Declares a narrow range, then allocates outside it."""

    name = "escaping"

    def declared_ranges(self, ttl, visible):
        return [(0, 8)]

    def allocate(self, ttl, visible):
        return AllocationResult(self.space_size - 1, band=None,
                                informed=False, forced=False)


class TestDoubleAllocate:
    def test_visible_address_reuse_records_san201(self):
        context = SanitizerContext(scenario="test")
        allocator = context.watch_allocator(BlindAllocator(SPACE))
        visible = view_of([5, 9])
        result = allocator.allocate(127, visible)
        assert result.address == 5
        assert "SAN201" in codes(context)
        assert context.violations[0].rule == "double-allocate"

    def test_informed_allocator_clean(self):
        context = SanitizerContext(scenario="test")
        allocator = context.watch_allocator(
            InformedRandomAllocator(SPACE, np.random.default_rng(7))
        )
        used = []
        for __ in range(SPACE):
            result = allocator.allocate(127, view_of(used))
            used.append(result.address)
        # The space is now full: the forced fallback is not a SAN201.
        forced = allocator.allocate(127, view_of(used))
        assert forced.forced
        assert context.clean

    def test_watch_allocator_is_idempotent(self):
        context = SanitizerContext(scenario="test")
        allocator = BlindAllocator(SPACE)
        context.watch_allocator(allocator)
        context.watch_allocator(allocator)  # must not double-wrap
        visible = view_of([3])
        allocator.allocate(127, visible)
        assert codes(context) == ["SAN201"]


class TestDoubleAllocateOnWorldView:
    """SAN201 on the view the ``steady`` scenario feeds the sanitizer:
    an allocation world's per-node counts, a column of its tables."""

    def test_visible_address_reuse_records_san201(self, chain_scope_map):
        context = SanitizerContext(scenario="test")
        allocator = context.watch_allocator(BlindAllocator(SPACE))
        world = AllocationWorld(chain_scope_map, SPACE)
        world.add(Session(address=9, ttl=18, source=0))
        world.add(Session(address=5, ttl=2, source=0))
        # Node 1 hears both sessions; node 3 only the TTL-18 one.
        assert allocator.allocate(127, world.visible_at(1)).address == 5
        assert allocator.allocate(127, world.visible_at(3)).address == 9
        assert codes(context) == ["SAN201", "SAN201"]
        assert context.violations[0].rule == "double-allocate"

    def test_informed_allocator_clean(self, chain_scope_map):
        context = SanitizerContext(scenario="test")
        allocator = context.watch_allocator(
            InformedRandomAllocator(SPACE, np.random.default_rng(7))
        )
        world = AllocationWorld(chain_scope_map, SPACE)
        for __ in range(SPACE):
            result = allocator.allocate(127, world.visible_at(1))
            world.add(Session(address=result.address, ttl=127, source=1))
        # TTL 127 from node 1 reaches every node, so the space is full
        # everywhere: the forced fallback is not a SAN201.
        forced = allocator.allocate(127, world.visible_at(4))
        assert forced.forced
        assert context.clean


class TestAllocOutOfBounds:
    def test_escape_from_declared_range_records_san202(self):
        context = SanitizerContext(scenario="test")
        allocator = context.watch_allocator(EscapingAllocator(SPACE))
        allocator.allocate(127, view_of([]))
        assert codes(context) == ["SAN202"]
        assert context.violations[0].rule == "alloc-out-of-bounds"

    def test_within_declared_range_clean(self):
        context = SanitizerContext(scenario="test")
        allocator = context.watch_allocator(
            InformedRandomAllocator(SPACE, np.random.default_rng(7))
        )
        for __ in range(10):
            result = allocator.allocate(127, view_of([]))
            assert 0 <= result.address < SPACE
        assert context.clean


class TestFreeOfUnallocated:
    def test_double_withdraw_records_san203(self):
        context = SanitizerContext(scenario="test")
        scheduler, network = make_stack(context)
        directory = make_directory(context, scheduler, network, 0)
        session = directory.create_session("conf", ttl=63)
        own = directory.own_sessions()[0]
        directory.delete_session(session)  # the legitimate free
        assert context.clean
        # A buggy resurrection: the session sneaks back into the
        # directory's table, so the next withdrawal is a double free.
        directory._own[(0, own.description.session_id)] = own
        directory.delete_session(session)
        assert codes(context) == ["SAN203"]
        assert context.violations[0].rule == "free-of-unallocated"

    def test_move_of_untracked_session_records_san203(self):
        context = SanitizerContext(scenario="test")
        scheduler, network = make_stack(context)
        directory = make_directory(context, scheduler, network, 0)
        session = directory.create_session("conf", ttl=63)
        own = directory.own_sessions()[0]
        directory.delete_session(session)
        # A buggy clash handler retreats the withdrawn session.
        directory.retreat(own)
        assert codes(context) == ["SAN203"]
        assert context.violations[0].rule == "free-of-unallocated"

    def test_create_then_withdraw_clean(self):
        context = SanitizerContext(scenario="test")
        scheduler, network = make_stack(context)
        directory = make_directory(context, scheduler, network, 0)
        session = directory.create_session("conf", ttl=63)
        assert context.address_sanitizer.live_count == 1
        directory.delete_session(session)
        assert context.address_sanitizer.live_count == 0
        assert context.clean

    def test_sessions_created_before_watch_are_seeded(self):
        context = SanitizerContext(scenario="test")
        scheduler, network = make_stack(context)
        directory = SessionDirectory(
            node=0, scheduler=scheduler, network=network,
            allocator=InformedRandomAllocator(
                SPACE, np.random.default_rng(0)
            ),
            address_space=MulticastAddressSpace.abstract(SPACE),
            rng=np.random.default_rng(100),
        )
        session = directory.create_session("early", ttl=63)
        context.watch_directory(directory)
        directory.delete_session(session)  # not a free-of-unallocated
        assert context.clean


class TestUseAfterExpiry:
    def test_origin_reannounce_after_delete_records_san204(self):
        context = SanitizerContext(scenario="test")
        scheduler, network = make_stack(context)
        directory = make_directory(context, scheduler, network, 0)
        # Give the packets somewhere to go so deliveries are scheduled.
        make_directory(context, scheduler, network, 1)
        session = directory.create_session("conf", ttl=63)
        own = directory.own_sessions()[0]
        scheduler.run(until=5.0)
        directory.delete_session(session)
        assert context.clean
        # The bug: the announcer's raw send path fires after the stop.
        own.announcer.send()
        assert codes(context) == ["SAN204"]
        assert context.violations[0].rule == "use-after-expiry"

    def test_third_party_proxy_defence_is_exempt(self):
        context = SanitizerContext(scenario="test")
        scheduler, network = make_stack(context)
        directory = make_directory(context, scheduler, network, 0)
        make_directory(context, scheduler, network, 1)
        session = directory.create_session("conf", ttl=63)
        own = directory.own_sessions()[0]
        payload = own.description.format()
        scheduler.run(until=5.0)
        directory.delete_session(session)
        # Phase 3: another site re-announces node 0's session verbatim
        # (source != origin) — legitimate, must stay silent.
        message = SapMessage.announce(0, payload)
        network.send(Packet(source=2, group=0, ttl=63,
                            payload=message.encode()))
        assert context.clean

    def test_delete_message_itself_is_exempt(self):
        # The DELETE shares the ANNOUNCE's cache key; sending it must
        # not read as a use-after-expiry.
        context = SanitizerContext(scenario="test")
        scheduler, network = make_stack(context)
        directory = make_directory(context, scheduler, network, 0)
        make_directory(context, scheduler, network, 1)
        session = directory.create_session("conf", ttl=63)
        scheduler.run(until=5.0)
        directory.delete_session(session)
        scheduler.run(until=10.0)
        assert context.clean


class TestGhostSessionRegression:
    """The latent bug the sanitizer caught: self-origin echo caching.

    Phase-3 proxy defence re-sends another site's message verbatim.
    If the originator caches its own echoed announcement, it can later
    proxy-defend its *own withdrawn* session — resurrecting a session
    it knows is dead.  The directory must drop self-origin packets.
    """

    def test_self_origin_echo_is_not_cached(self):
        context = SanitizerContext(scenario="test")
        scheduler, network = make_stack(context)
        directory = make_directory(context, scheduler, network, 0)
        make_directory(context, scheduler, network, 1)
        session = directory.create_session("conf", ttl=63)
        own = directory.own_sessions()[0]
        payload = own.description.format()
        scheduler.run(until=5.0)
        # A third party echoes node 0's own announcement back at it.
        message = SapMessage.announce(0, payload)
        network.send(Packet(source=2, group=0, ttl=63,
                            payload=message.encode()))
        scheduler.run(until=6.0)
        assert len(directory.cache) == 0
        assert session.source == 0
