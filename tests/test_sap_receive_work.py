"""Work per SAP send, per delivered announcement and per allocation.

An own session's announcement is formatted and encoded once per SDP
(version, connection address): refreshes, defences and withdrawals
re-send its cached bytes, and its cache key is read from the cache.
The receive path parses an announcement's SDP once, on a cache miss,
and maps the group address from that parse; a hit on an entry that
already has its address parses nothing.  ``owns()`` answers a key of
another origin without reading any own session.  The clash check
reads the own sessions at the announced address, never the site's
full list, and the allocator's view is counted as entries and own
sessions come and go, so allocating visits no entry.  The counts are pinned here because they
are the per-packet and per-allocation cost the benchmark's SAP
workloads measure.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.modelcheck.harness import GhostResurrectionDirectory
from repro.sap.cache import CacheEntry, SessionCache
from repro.sap.directory import SAP_GROUP, OwnSession, SessionDirectory
from repro.sap.messages import SapMessage, SapMessageType
from repro.sap.sdp import SessionDescription
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel, Packet

SPACE = MulticastAddressSpace.abstract(64)


@pytest.fixture
def calls(monkeypatch):
    """Counts of SDP ``parse`` and ``format`` and SAP ``encode`` calls."""
    counts = Counter()
    parse = SessionDescription.parse.__func__
    format_ = SessionDescription.format
    encode = SapMessage.encode

    def counted_parse(cls, text):
        counts["parse"] += 1
        return parse(cls, text)

    def counted_format(self):
        counts["format"] += 1
        return format_(self)

    def counted_encode(self, compress=False):
        counts["encode"] += 1
        return encode(self, compress)

    monkeypatch.setattr(SessionDescription, "parse",
                        classmethod(counted_parse))
    monkeypatch.setattr(SessionDescription, "format", counted_format)
    monkeypatch.setattr(SapMessage, "encode", counted_encode)
    return counts


@pytest.fixture
def world():
    scheduler = EventScheduler()
    network = NetworkModel(
        scheduler, lambda source, ttl: [(node, 0.01) for node in range(3)])

    def directory(node, cls=SessionDirectory):
        rng = np.random.default_rng(node)
        return cls(node, scheduler, network,
                   InformedRandomAllocator(SPACE.size, rng), SPACE,
                   rng=rng)

    return directory


def announcement(directory):
    """The packet announcing ``directory``'s first own session."""
    own = directory.own_sessions()[0]
    message = SapMessage.announce(directory.node, own.description.format())
    return Packet(source=directory.node, group=SAP_GROUP,
                  ttl=own.session.ttl, payload=message.encode())


def test_miss_parses_once_and_mapped_hit_parses_nothing(world, calls):
    alice, bob = world(0), world(1)
    session = alice.create_session("talk", ttl=63)
    packet = announcement(alice)
    calls.clear()
    bob._on_packet(bob.node, packet)
    assert calls["parse"] == 1
    entry = bob.cache.entries()[0]
    assert entry.address_index == session.address
    calls.clear()
    bob.scheduler.run(until=7.0)
    bob._on_packet(bob.node, packet)
    assert calls["parse"] == 0
    assert entry.last_heard == 7.0


def test_owns_formats_nothing_for_a_foreign_key(world, calls):
    alice, bob = world(0), world(1)
    alice.create_session("theirs", ttl=63)
    for index in range(3):
        bob.create_session(f"mine{index}", ttl=63)
    foreign = SapMessage.decode(announcement(alice).payload).key()
    calls.clear()
    assert not bob.owns(foreign)
    assert calls["format"] == 0


def test_owns_still_matches_a_cached_own_origin_key(world, calls):
    # With self-origin echoes cached (the model checker's
    # ghost-resurrection mutation), own-origin keys reach owns().
    bob = world(1, cls=GhostResurrectionDirectory)
    bob.create_session("mine", ttl=63)
    bob._on_packet(bob.node, announcement(bob))
    echo = bob.cache.entries()[0]
    assert echo.message.origin == bob.node
    calls.clear()
    assert bob.owns(echo.message.key())
    # The key was built with the announcement bob sent.
    assert calls["format"] == 0
    other = (bob.node, (echo.message.msg_id_hash + 1) % 2 ** 16)
    assert not bob.owns(other)


def test_foreign_clash_formats_no_own_key(world, calls):
    # Own keys carry this site as origin: against another origin the
    # keys differ and the origins decide the tie-break.
    bob = world(0)
    for index in range(3):
        bob.create_session(f"mine{index}", ttl=63)
    taken = bob.own_sessions()[1].session.address
    theirs = SessionDescription(name="theirs", session_id=1, ttl=63,
                                connection_address=SPACE.index_to_ip(taken))
    packet = Packet(source=2, group=SAP_GROUP, ttl=63,
                    payload=SapMessage.announce(2, theirs.format()).encode())
    calls.clear()
    bob._on_packet(bob.node, packet)
    # Both are new and bob's origin 0 is lower, so bob defends, and
    # the defence re-sends the cached announcement.
    assert bob.clash_handler.clashes_seen == 1
    assert bob.clash_handler.own_defences == 1
    assert bob.address_changes == 0
    assert calls["format"] == 0


def test_own_origin_echo_still_compares_full_keys(world, monkeypatch):
    bob = world(1, cls=GhostResurrectionDirectory)
    bob.create_session("mine", ttl=63)
    calls = Counter()
    message_key = OwnSession.message_key

    def counted(own):
        calls["message_key"] += 1
        return message_key(own)

    monkeypatch.setattr(OwnSession, "message_key", counted)
    bob._on_packet(bob.node, announcement(bob))
    assert calls["message_key"] == 1
    assert bob.clash_handler.clashes_seen == 0
    assert bob.address_changes == 0


def test_delivery_never_lists_all_own_sessions(world, monkeypatch):
    bob = world(1)
    for index in range(50):
        bob.create_session(f"mine{index}", ttl=63)
    # A newcomer from node 0 at the address of bob's eighth session.
    taken = bob.own_sessions()[7].session.address
    theirs = SessionDescription(name="theirs", session_id=1, ttl=63,
                                connection_address=SPACE.index_to_ip(taken))
    packet = Packet(source=0, group=SAP_GROUP, ttl=63,
                    payload=SapMessage.announce(0, theirs.format()).encode())

    def listed(directory):
        raise AssertionError("own_sessions() called on delivery")

    monkeypatch.setattr(SessionDirectory, "own_sessions", listed)
    bob._on_packet(bob.node, packet)  # a miss: the clash, bob retreats
    bob._on_packet(bob.node, packet)  # a hit: no clash left
    assert bob.clash_handler.clashes_seen == 1
    assert bob.address_changes == 1


def test_visible_set_reads_no_cache_entry(world, monkeypatch):
    """The view is counted as entries come and go, so reading it or
    allocating visits no entry and lists neither the cache nor the own
    sessions."""
    alice = world(0)
    for index in range(5):
        description = SessionDescription(
            name=f"s{index}", session_id=index, ttl=15 + index,
            connection_address=SPACE.index_to_ip(index))
        alice.cache.observe(SapMessage.announce(2, description.format()),
                            0.0)
    mine = alice.create_session("mine", ttl=63)

    def read(*args):
        raise AssertionError("allocation read a cache entry or a list")

    monkeypatch.setattr(CacheEntry, "ttl", property(read))
    monkeypatch.setattr(SessionCache, "entries", read)
    monkeypatch.setattr(SessionDirectory, "own_sessions", read)
    view = alice.cache.visible_set()
    assert view is alice._allocation_view()
    assert len(view) == 6
    used = sorted(set(range(SPACE.size))
                  - set(view.free_offsets(0, SPACE.size).tolist()))
    assert used == sorted([0, 1, 2, 3, 4, mine.address])
    session = alice.create_session("next", ttl=63)
    assert session.address not in used
    assert len(alice._allocation_view()) == 7


# ----------------------------------------------------------------------
# The send path
# ----------------------------------------------------------------------
def heard(directory, listener=2):
    """Packets ``directory`` sends, as heard at node ``listener``."""
    packets = []
    directory.network.listen(listener, lambda node, packet:
                             packets.append(packet))
    return packets


def test_refresh_rounds_format_and_encode_once(world, calls):
    alice = world(0)
    packets = heard(alice)
    alice.create_session("talk", ttl=63)
    own = alice.own_sessions()[0]
    # FixedIntervalStrategy: 600 s, +/-10% jitter, so three rounds.
    alice.scheduler.run(until=1500.0)
    assert own.announcer.announcements_sent == 3
    assert len(packets) == 3
    assert calls["format"] == 1
    assert calls["encode"] == 1
    assert len({packet.payload for packet in packets}) == 1
    assert packets[0].payload == SapMessage.announce(
        alice.node, own.description.format()).encode()


def test_announce_now_of_unchanged_session_builds_nothing(world, calls):
    alice = world(0)
    packets = heard(alice)
    alice.create_session("talk", ttl=63)
    own = alice.own_sessions()[0]
    calls.clear()
    own.announcer.announce_now()
    alice.scheduler.run(until=1.0)
    assert calls["format"] == 0
    assert calls["encode"] == 0
    assert len(packets) == 2
    assert packets[1].payload == packets[0].payload


def test_retreat_formats_once_and_announces_the_move(world, calls):
    alice = world(0)
    packets = heard(alice)
    alice.create_session("talk", ttl=63)
    own = alice.own_sessions()[0]
    old_key = own.message_key()
    alice.scheduler.run(until=1.0)
    calls.clear()
    alice.retreat(own)
    assert own.message_key() != old_key
    alice.scheduler.run(until=700.0)  # the retreat, then one refresh
    assert calls["format"] == 1
    assert calls["encode"] == 1
    assert len(packets) == 3
    message = SapMessage.decode(packets[1].payload)
    description = SessionDescription.parse(message.payload)
    assert description.version == 2
    assert description.connection_address == SPACE.index_to_ip(
        own.session.address)
    assert message.key() == own.message_key()
    assert packets[2].payload == packets[1].payload


def test_relocate_alone_rebuilds_the_key(world, calls):
    # relocate() bumps no version: the stamp's address alone must
    # invalidate the cached announcement.
    alice = world(0)
    alice.create_session("talk", ttl=63)
    own = alice.own_sessions()[0]
    old_key = own.message_key()
    calls.clear()
    alice.relocate(own, (own.session.address + 1) % SPACE.size)
    new_key = own.message_key()
    assert own.message_key() == new_key
    assert calls["format"] == 1
    assert new_key != old_key
    assert new_key == SapMessage.announce(
        alice.node, own.description.format()).key()


def test_delete_withdraws_the_last_announcement(world, calls):
    alice = world(0)
    packets = heard(alice)
    session = alice.create_session("talk", ttl=63)
    alice.scheduler.run(until=1.0)
    calls.clear()
    alice.delete_session(session)
    alice.scheduler.run(until=2.0)
    assert calls["format"] == 0
    assert calls["encode"] == 1
    announce, delete = (SapMessage.decode(packet.payload)
                        for packet in packets)
    assert delete.msg_type is SapMessageType.DELETE
    assert delete.payload == announce.payload
    assert delete.key() == announce.key()
