"""SAP message codec and session cache tests."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.allocator import OccupancyView
from repro.core.partitions import (
    IPR3_EDGES,
    IPR7_EDGES,
    PartitionMap,
    margin_partition_map,
)
from repro.sap.cache import SessionCache
from repro.sap import messages
from repro.sap.messages import SapMessage, SapMessageType, payload_hash
from repro.sap.sdp import SessionDescription

PAYLOAD = SessionDescription(
    name="demo", session_id=7, connection_address="224.2.128.9", ttl=63
).format()


#: The space a bare cache counts over here.
CACHE_SPACE = 16


def new_cache(**kwargs):
    """A cache counting into a view of its own, as a directory's does."""
    return SessionCache(OccupancyView.from_pairs([], [], CACHE_SPACE),
                        **kwargs)


def at(index):
    """An ``address_of`` mapper that puts every description at ``index``."""
    return lambda description: index


MAPS = (PartitionMap(IPR3_EDGES), PartitionMap(IPR7_EDGES),
        margin_partition_map(2))


def assert_counts_match(view, pairs):
    """``view`` answers as a view built from ``pairs`` does."""
    reference = OccupancyView.from_pairs([a for a, __ in pairs],
                                         [t for __, t in pairs], CACHE_SPACE)
    assert len(view) == len(reference) == len(pairs)
    assert view.free_offsets(0, CACHE_SPACE).tolist() == \
        reference.free_offsets(0, CACHE_SPACE).tolist()
    for partition_map in MAPS:
        for min_ttl in (1, 15, 64, 200):
            assert view.band_counts(partition_map, min_ttl) == \
                reference.band_counts(partition_map, min_ttl)


class TestSapMessage:
    def test_announce_roundtrip(self):
        msg = SapMessage.announce(42, PAYLOAD)
        decoded = SapMessage.decode(msg.encode())
        assert decoded == msg
        assert decoded.msg_type is SapMessageType.ANNOUNCE
        assert decoded.origin == 42
        assert decoded.payload == PAYLOAD

    def test_delete_roundtrip(self):
        msg = SapMessage.delete(42, PAYLOAD)
        decoded = SapMessage.decode(msg.encode())
        assert decoded.msg_type is SapMessageType.DELETE
        assert decoded.key() == msg.key()

    def test_hash_tracks_payload(self):
        a = SapMessage.announce(1, PAYLOAD)
        b = SapMessage.announce(1, PAYLOAD + "a=extra\n")
        assert a.msg_id_hash != b.msg_id_hash
        assert payload_hash(PAYLOAD) == a.msg_id_hash

    def test_truncated_rejected(self):
        with pytest.raises(ValueError):
            SapMessage.decode(b"\x20\x00")

    def test_wrong_version_rejected(self):
        data = bytearray(SapMessage.announce(1, PAYLOAD).encode())
        data[0] = 0x40  # version 2
        with pytest.raises(ValueError):
            SapMessage.decode(bytes(data))

    def test_invalid_hash_rejected(self):
        with pytest.raises(ValueError):
            SapMessage(SapMessageType.ANNOUNCE, 1, 2 ** 16, PAYLOAD)

    def test_negative_origin_rejected(self):
        with pytest.raises(ValueError):
            SapMessage(SapMessageType.ANNOUNCE, -1, 0, PAYLOAD)

    def test_compressed_roundtrip(self):
        msg = SapMessage.announce(42, PAYLOAD * 8)
        wire = msg.encode(compress=True)
        assert SapMessage.decode(wire) == msg
        # Compression actually helps on repetitive SDP.
        assert len(wire) < len(msg.encode())

    def test_compressed_and_plain_interoperate(self):
        msg = SapMessage.announce(42, PAYLOAD)
        assert SapMessage.decode(msg.encode(compress=True)) == \
            SapMessage.decode(msg.encode())

    def test_corrupt_compressed_payload_rejected(self):
        msg = SapMessage.announce(42, PAYLOAD)
        wire = bytearray(msg.encode(compress=True))
        wire[10] ^= 0xFF
        with pytest.raises(ValueError):
            SapMessage.decode(bytes(wire))

    def test_non_utf8_payload_rejected(self):
        msg = SapMessage.announce(42, PAYLOAD)
        wire = msg.encode()[:8] + b"\xff\xfe\x00"
        with pytest.raises(ValueError):
            SapMessage.decode(wire)


class TestDecodeMemo:
    """Receivers of one packet share its decode through a bounded memo."""

    def test_malformed_packets_raise_on_every_call(self):
        wire = SapMessage.announce(42, PAYLOAD).encode(compress=True)
        corrupt = wire[:10] + bytes([wire[10] ^ 0xFF]) + wire[11:]
        for data in (b"\x20\x00", b"\x40" + wire[1:], corrupt,
                     wire[:8] + b"\xff\xfe\x00"):
            for __ in range(3):
                with pytest.raises(ValueError):
                    SapMessage.decode(data)

    def test_bytearray_and_compressed_payloads_decode_equal(self):
        msg = SapMessage.announce(42, PAYLOAD)
        wire = msg.encode()
        for data in (wire, bytearray(wire), msg.encode(compress=True),
                     bytearray(msg.encode(compress=True))):
            assert SapMessage.decode(data) == msg

    def test_memo_stays_at_its_bound(self):
        for index in range(10_000):
            message = SapMessage.announce(index, PAYLOAD)
            assert SapMessage.decode(message.encode()) == message
        info = messages._decode.cache_info()
        assert info.maxsize == messages.DECODE_MEMO_SIZE
        assert info.currsize == messages.DECODE_MEMO_SIZE


class TestSessionCache:
    def test_observe_announcement(self):
        cache = new_cache()
        msg = SapMessage.announce(1, PAYLOAD)
        entry = cache.observe(msg, now=5.0, address_of=at(9))
        assert len(cache) == 1
        assert entry.first_heard == 5.0
        assert entry.address_index == 9
        assert entry.description.name == "demo"
        assert entry.ttl == 63

    def test_repeat_updates_last_heard(self):
        cache = new_cache()
        msg = SapMessage.announce(1, PAYLOAD)
        cache.observe(msg, now=5.0)
        entry = cache.observe(msg, now=15.0)
        assert len(cache) == 1
        assert entry.first_heard == 5.0
        assert entry.last_heard == 15.0
        assert entry.times_heard == 2

    def test_delete_removes(self):
        cache = new_cache()
        cache.observe(SapMessage.announce(1, PAYLOAD), now=0.0)
        cache.observe(SapMessage.delete(1, PAYLOAD), now=1.0)
        assert len(cache) == 0

    def test_unparseable_payload_ignored(self):
        cache = new_cache()
        entry = cache.observe(SapMessage.announce(1, "garbage"), now=0.0)
        assert entry is None
        assert len(cache) == 0

    def test_expiry(self):
        cache = new_cache(timeout=100.0)
        cache.observe(SapMessage.announce(1, PAYLOAD), now=0.0)
        other = SessionDescription(name="other").format()
        cache.observe(SapMessage.announce(2, other), now=90.0)
        assert cache.expire(now=150.0) == 1
        assert len(cache) == 1
        assert cache.lookup(1, payload_hash(PAYLOAD)) is None

    def test_refresh_prevents_expiry(self):
        cache = new_cache(timeout=100.0)
        msg = SapMessage.announce(1, PAYLOAD)
        cache.observe(msg, now=0.0)
        cache.observe(msg, now=80.0)
        assert cache.expire(now=150.0) == 0

    def test_entries_for_address(self):
        cache = new_cache()
        cache.observe(SapMessage.announce(1, PAYLOAD), now=0.0,
                      address_of=at(9))
        other = SessionDescription(name="other").format()
        cache.observe(SapMessage.announce(2, other), now=0.0,
                      address_of=at(4))
        hits = cache.entries_for_address(9)
        assert len(hits) == 1
        assert hits[0].description.name == "demo"

    def test_visible_set(self):
        cache = new_cache()
        cache.observe(SapMessage.announce(1, PAYLOAD), now=0.0,
                      address_of=at(9))
        unmapped = SessionDescription(name="unmapped").format()
        cache.observe(SapMessage.announce(2, unmapped), now=0.0)
        vs = cache.visible_set()
        assert isinstance(vs, OccupancyView)
        assert len(vs) == 1
        assert vs.free_offsets(0, CACHE_SPACE).tolist() == \
            [a for a in range(CACHE_SPACE) if a != 9]
        assert vs.band_counts(PartitionMap(IPR3_EDGES), 1) == [0, 1, 0]
        assert vs.band_counts(PartitionMap(IPR3_EDGES), 64) == [0, 0, 0]

    def test_invalid_timeout_rejected(self):
        with pytest.raises(ValueError):
            new_cache(timeout=0.0)

    def test_modified_announcement_supersedes_older_version(self):
        """An address change (clash retreat) must not leave the old
        address looking occupied: version 2 replaces version 1."""
        cache = new_cache()
        v1 = SessionDescription(name="talk", username="mjh",
                                session_id=7, version=1,
                                connection_address="224.2.128.5",
                                ttl=63)
        v2 = SessionDescription(name="talk", username="mjh",
                                session_id=7, version=2,
                                connection_address="224.2.128.9",
                                ttl=63)
        cache.observe(SapMessage.announce(1, v1.format()), now=0.0,
                      address_of=at(5))
        cache.observe(SapMessage.announce(1, v2.format()), now=10.0,
                      address_of=at(9))
        assert len(cache) == 1
        entry = cache.entries()[0]
        assert entry.description.version == 2
        assert entry.address_index == 9
        assert cache.entries_for_address(5) == []

    def test_stale_version_does_not_displace_newer(self):
        cache = new_cache()
        v2 = SessionDescription(name="talk", username="mjh",
                                session_id=7, version=2)
        v1 = SessionDescription(name="talk", username="mjh",
                                session_id=7, version=1)
        cache.observe(SapMessage.announce(1, v2.format()), now=0.0)
        cache.observe(SapMessage.announce(1, v1.format()), now=5.0)
        # The delayed old version coexists (it has a distinct hash)
        # but the new one survives.
        versions = sorted(e.description.version
                          for e in cache.entries())
        assert 2 in versions

    def test_same_session_id_different_origin_not_superseded(self):
        cache = new_cache()
        desc = SessionDescription(name="talk", username="mjh",
                                  session_id=7, version=2)
        cache.observe(SapMessage.announce(1, desc.format()), now=0.0)
        cache.observe(SapMessage.announce(2, desc.format()), now=1.0)
        assert len(cache) == 2


# --------------------------------------------------------------------
# The address and session indexes against a full-scan reference.
# --------------------------------------------------------------------

MAPPED = {"224.2.128.1": 1, "224.2.128.2": 2, "224.2.128.3": 3}
UNMAPPED = "239.255.0.1"
TIMEOUT = 6.0


def address_of(description):
    return MAPPED.get(description.connection_address)


def sdp(origin_key, version, address):
    # The TTL varies with the session and version, so that a count
    # left at another entry's TTL would show.
    username, session_id = origin_key
    return SessionDescription(name="s", username=username,
                              session_id=session_id, version=version,
                              connection_address=address,
                              ttl=16 * session_id + version).format()


def scanned_visible_pairs(entries):
    """The (address, ttl) pairs of the mapped entries, from a scan."""
    return sorted((entry.address_index, entry.ttl) for entry in entries
                  if entry.address_index is not None)


class FullScanCache:
    """The cache's rules written as scans over every entry, the way the
    cache worked before it kept indexes.  Rows are [address, origin
    key, version, last heard], keyed and ordered like the cache."""

    def __init__(self):
        self.rows = {}

    def observe(self, message, now):
        key = message.key()
        if message.msg_type is SapMessageType.DELETE:
            self.rows.pop(key, None)
            return
        if key in self.rows:
            row = self.rows[key]
            row[3] = now
            if row[0] is None:
                row[0] = address_of(SessionDescription.parse(message.payload))
            return
        description = SessionDescription.parse(message.payload)
        stale = [other for other, row in self.rows.items()
                 if other[0] == key[0]
                 and row[1] == description.origin_key()
                 and row[2] < description.version]
        for other in stale:
            del self.rows[other]
        self.rows[key] = [address_of(description),
                          description.origin_key(), description.version,
                          now]

    def expire(self, now):
        for key in [key for key, row in self.rows.items()
                    if now - row[3] > TIMEOUT]:
            del self.rows[key]


ORIGIN_KEYS = st.tuples(st.sampled_from("ab"), st.integers(1, 3))
ADDRESSES = st.sampled_from(sorted(MAPPED) + [UNMAPPED])
ANNOUNCED = st.tuples(st.integers(0, 2), ORIGIN_KEYS, st.integers(1, 4),
                      ADDRESSES)
PICK = st.integers(0, 63)
STEPS = st.lists(st.one_of(
    st.tuples(st.just("announce"), ANNOUNCED),
    st.tuples(st.just("reversion"),
              st.tuples(PICK, st.sampled_from((-1, 1)), ADDRESSES)),
    st.tuples(st.just("delete"), st.tuples(PICK)),
    st.tuples(st.just("expire"), st.none()),
    st.tuples(st.just("collide"), st.tuples(PICK, ADDRESSES)),
), max_size=40)


def apply_step(cache, reference, step, now):
    kind, arg = step
    entries = cache.entries()
    picked = None
    if entries and kind in ("reversion", "delete", "collide"):
        picked = entries[arg[0] % len(entries)]
    messages = []
    if kind == "announce":
        origin, origin_key, version, address = arg
        messages.append(SapMessage.announce(
            origin, sdp(origin_key, version, address)))
    elif kind == "reversion" and picked is not None:
        # The same session one version newer, or one older arriving
        # after the newer one.
        __, delta, address = arg
        description = picked.description
        messages.append(SapMessage.announce(picked.message.origin, sdp(
            description.origin_key(),
            max(1, description.version + delta), address)))
    elif kind == "delete" and picked is not None:
        messages.append(SapMessage.delete(picked.message.origin,
                                          picked.message.payload))
    elif kind == "collide" and picked is not None:
        # Another payload under an existing key: a hit, which late-fills
        # the entry's address if it had none.
        messages.append(SapMessage(SapMessageType.ANNOUNCE,
                                   *picked.message.key(),
                                   sdp(("c", 9), 1, arg[1])))
    elif kind == "expire":
        cache.expire(now)
        reference.expire(now)
    for message in messages:
        cache.observe(message, now, address_of=address_of)
        reference.observe(message, now)


class TestCacheIndexes:
    @given(STEPS)
    @settings(max_examples=150, deadline=None)
    def test_indexes_match_full_scans(self, steps):
        cache = new_cache(timeout=TIMEOUT)
        reference = FullScanCache()
        for now, step in enumerate(steps):
            apply_step(cache, reference, step, float(now))
            entries = cache.entries()
            assert [e.message.key() for e in entries] == \
                list(reference.rows)
            assert [e.address_index for e in entries] == \
                [row[0] for row in reference.rows.values()]
            for address in sorted(MAPPED.values()):
                expected = [e for e in entries if e.address_index == address]
                assert [id(e) for e in cache.entries_for_address(address)] \
                    == [id(e) for e in expected]
            assert_counts_match(cache.visible_set(),
                                scanned_visible_pairs(entries))

    def test_late_fill_keeps_scan_order(self):
        cache = new_cache()
        early = SapMessage.announce(1, sdp(("a", 1), 1, UNMAPPED))
        cache.observe(early, 0.0, address_of=address_of)
        cache.observe(SapMessage.announce(2, sdp(("a", 2), 1,
                                                 "224.2.128.1")),
                      1.0, address_of=address_of)
        collision = SapMessage(SapMessageType.ANNOUNCE, *early.key(),
                               sdp(("c", 9), 1, "224.2.128.1"))
        entry = cache.observe(collision, 2.0, address_of=address_of)
        assert entry.address_index == 1
        assert entry.description.origin_key() == ("a", 1)
        assert [e.message.origin for e in cache.entries_for_address(1)] \
            == [1, 2]


# --------------------------------------------------------------------
# Returned lists are copies: mutating one leaves the cache intact.
# --------------------------------------------------------------------

def test_mutating_returned_entries_leaves_cache_intact():
    cache = new_cache()
    cache._entries[(1, 2)] = "sentinel"
    view = cache.entries()
    view.clear()
    view.append("junk")
    assert len(cache) == 1
    assert cache.lookup(1, 2) == "sentinel"
