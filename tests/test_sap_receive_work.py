"""Work per delivered SAP announcement and per allocation.

The receive path parses an announcement's SDP once, on a cache miss,
and maps the group address from that parse; a hit on an entry that
already has its address parses nothing.  ``owns()`` answers a key of
another origin without formatting any SDP.  The clash check reads the
own sessions at the announced address, never the site's full list,
and the allocator's view copies the cache's columns without visiting
an entry.  The counts are pinned here because they are the per-packet
and per-allocation cost the benchmark's SAP workloads measure.
"""

from collections import Counter

import numpy as np
import pytest

from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.modelcheck.harness import GhostResurrectionDirectory
from repro.sap.cache import CacheEntry, SessionCache
from repro.sap.directory import SAP_GROUP, OwnSession, SessionDirectory
from repro.sap.messages import SapMessage
from repro.sap.sdp import SessionDescription
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel, Packet

SPACE = MulticastAddressSpace.abstract(64)


@pytest.fixture
def calls(monkeypatch):
    """Counts of SDP ``parse`` and ``format`` calls."""
    counts = Counter()
    parse = SessionDescription.parse.__func__
    format_ = SessionDescription.format

    def counted_parse(cls, text):
        counts["parse"] += 1
        return parse(cls, text)

    def counted_format(self):
        counts["format"] += 1
        return format_(self)

    monkeypatch.setattr(SessionDescription, "parse",
                        classmethod(counted_parse))
    monkeypatch.setattr(SessionDescription, "format", counted_format)
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
    bob._on_packet(bob.node, packet)
    assert calls["parse"] == 0
    assert entry.times_heard == 2


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
    assert calls["format"] == 1
    other = (bob.node, (echo.message.msg_id_hash + 1) % 2 ** 16)
    assert not bob.owns(other)


def test_foreign_clash_formats_no_own_key(world, monkeypatch):
    # Own keys carry this site as origin: against another origin the
    # keys differ and the origins decide the tie-break.
    bob = world(1)
    for index in range(3):
        bob.create_session(f"mine{index}", ttl=63)
    taken = bob.own_sessions()[1].session.address
    theirs = SessionDescription(name="theirs", session_id=1, ttl=63,
                                connection_address=SPACE.index_to_ip(taken))
    packet = Packet(source=0, group=SAP_GROUP, ttl=63,
                    payload=SapMessage.announce(0, theirs.format()).encode())

    def keyed(own):
        raise AssertionError("OwnSession.message_key() called")

    monkeypatch.setattr(OwnSession, "message_key", keyed)
    bob._on_packet(bob.node, packet)
    # Both are new and origin 0 is lower, so bob retreats.
    assert bob.clash_handler.clashes_seen == 1
    assert bob.address_changes == 1


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


def test_visible_set_reads_no_cache_entry(monkeypatch):
    cache = SessionCache()
    for index in range(5):
        description = SessionDescription(
            name=f"s{index}", session_id=index, ttl=15 + index,
            connection_address=SPACE.index_to_ip(index))
        cache.observe(SapMessage.announce(2, description.format()), 0.0,
                      address_of=lambda d: SPACE.ip_to_index(
                          d.connection_address))

    def read(entry):
        raise AssertionError("visible_set() read CacheEntry.ttl")

    monkeypatch.setattr(CacheEntry, "ttl", property(read))
    visible = cache.visible_set()
    assert sorted(zip(visible.addresses.tolist(),
                      visible.ttls.tolist())) == \
        [(index, 15 + index) for index in range(5)]
