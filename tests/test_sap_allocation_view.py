"""A directory's allocation view against a scan of what it holds.

A :class:`SessionDirectory` keeps one live pair of count arrays: the
cache counts each entry with a mapped address, and the own-session
index counts each own session.  Under random churn of both, the view
must answer every allocator question as a reference built from
``cache.entries()`` and ``own_sessions()`` answers it.  The reference
reads the (address, ttl) pairs themselves, not counts.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.core.partitions import (
    IPR3_EDGES,
    IPR7_EDGES,
    PartitionMap,
    margin_partition_map,
)
from repro.sap.directory import SAP_GROUP, SessionDirectory
from repro.sap.messages import SapMessage, SapMessageType
from repro.sap.sdp import SessionDescription
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel, Packet

#: Small, so that sessions share addresses and the clash protocol runs.
SPACE = MulticastAddressSpace.abstract(8)
UNMAPPED = "239.255.0.1"
GROUPS = [SPACE.index_to_ip(i) for i in range(SPACE.size)] + [UNMAPPED]
RANGES = ((0, SPACE.size), (0, 3), (2, 7), (5, SPACE.size), (4, 5))
MAPS = (PartitionMap(IPR3_EDGES), PartitionMap(IPR7_EDGES),
        margin_partition_map(2))
MIN_TTLS = (1, 2, 15, 16, 64, 128, 200, 255)


def reference_answers(directory):
    """``len``, free offsets per range and band counts per (map,
    min_ttl), from a scan of the cache entries and own sessions."""
    pairs = [(entry.address_index, entry.ttl)
             for entry in directory.cache.entries()
             if entry.address_index is not None]
    pairs += [(own.session.address, own.session.ttl)
              for own in directory.own_sessions()]
    used = {address for address, __ in pairs}
    ttls = np.array([ttl for __, ttl in pairs], dtype=np.int64)
    free = [[address - lo for address in range(lo, hi)
             if address not in used] for lo, hi in RANGES]
    bands = [partition_map.band_counts(ttls[ttls >= min_ttl]).tolist()
             for partition_map in MAPS for min_ttl in MIN_TTLS]
    return len(pairs), free, bands


def view_answers(view):
    free = [view.free_offsets(lo, hi).tolist() for lo, hi in RANGES]
    bands = [view.band_counts(partition_map, min_ttl)
             for partition_map in MAPS for min_ttl in MIN_TTLS]
    return len(view), free, bands


def new_directory():
    scheduler = EventScheduler()
    network = NetworkModel(scheduler, lambda source, ttl: [])
    rng = np.random.default_rng(0)
    return SessionDirectory(0, scheduler, network,
                            InformedRandomAllocator(SPACE.size, rng), SPACE,
                            rng=rng)


def sdp(username, session_id, version, group, ttl):
    return SessionDescription(
        name="s", username=username, session_id=session_id,
        version=version, connection_address=group, ttl=ttl).format()


PICK = st.integers(0, 63)
TTL = st.integers(1, 255)
STEPS = st.lists(st.one_of(
    # Another origin's announcement: new, or a repeat of one heard.
    st.tuples(st.just("announce"), st.tuples(
        st.integers(1, 3), st.sampled_from("ab"), st.integers(1, 3),
        st.integers(1, 4), st.sampled_from(GROUPS), TTL)),
    st.tuples(st.just("refresh"), st.tuples(PICK)),
    # The same session one version newer (superseding), or older.
    st.tuples(st.just("reversion"),
              st.tuples(PICK, st.sampled_from((-1, 1)),
                        st.sampled_from(GROUPS), TTL)),
    st.tuples(st.just("delete"), st.tuples(PICK)),
    # Another payload under a cached key: a hit, which maps the
    # address of an entry cached without one.
    st.tuples(st.just("collide"), st.tuples(PICK, st.sampled_from(GROUPS),
                                            TTL)),
    st.tuples(st.just("create"), st.tuples(TTL)),
    st.tuples(st.just("retreat"), st.tuples(PICK)),
    st.tuples(st.just("withdraw"), st.tuples(PICK)),
    st.tuples(st.just("withdraw-relocate"),
              st.tuples(PICK, st.integers(0, SPACE.size - 1))),
    # Let timers fire (defences, retreats), then expire the cache.
    st.tuples(st.just("advance"), st.tuples(st.sampled_from(
        (0.5, 30.0, 4000.0)))),
), max_size=40)


def receive(directory, message):
    directory._on_packet(directory.node, Packet(
        source=message.origin, group=SAP_GROUP, ttl=255,
        payload=message.encode()))


def picked(items, arg):
    """The item ``arg[0]`` picks, or None from no items."""
    return items[arg[0] % len(items)] if items else None


def apply_step(directory, step):
    kind, arg = step
    entry = own = None
    if kind in ("refresh", "reversion", "delete", "collide"):
        entry = picked(directory.cache.entries(), arg)
    elif kind in ("retreat", "withdraw", "withdraw-relocate"):
        own = picked(directory.own_sessions(), arg)
    if kind == "announce":
        origin, username, session_id, version, group, ttl = arg
        receive(directory, SapMessage.announce(
            origin, sdp(username, session_id, version, group, ttl)))
    elif kind == "refresh" and entry is not None:
        receive(directory, entry.message)
    elif kind == "reversion" and entry is not None:
        __, delta, group, ttl = arg
        description = entry.description
        receive(directory, SapMessage.announce(entry.message.origin, sdp(
            description.username, description.session_id,
            max(1, description.version + delta), group, ttl)))
    elif kind == "delete" and entry is not None:
        receive(directory, SapMessage(SapMessageType.DELETE,
                                      *entry.message.key(),
                                      entry.message.payload))
    elif kind == "collide" and entry is not None:
        __, group, ttl = arg
        receive(directory, SapMessage(SapMessageType.ANNOUNCE,
                                      *entry.message.key(),
                                      sdp("c", 9, 1, group, ttl)))
    elif kind == "create":
        directory.create_session("mine", ttl=arg[0])
    elif kind == "retreat" and own is not None:
        directory.retreat(own)
    elif kind == "withdraw" and own is not None:
        directory.delete_session(own.session)
    elif kind == "withdraw-relocate" and own is not None:
        directory.delete_session(own.session)
        directory.relocate(own, arg[1])
    elif kind == "advance":
        scheduler = directory.scheduler
        scheduler.run(until=scheduler.now + arg[0])
        directory.expire_cache()


class TestDirectoryView:
    @given(STEPS)
    @settings(max_examples=200, deadline=None)
    def test_view_matches_a_scan_under_churn(self, steps):
        directory = new_directory()
        view = directory._allocation_view()
        for step in steps:
            apply_step(directory, step)
            assert directory._allocation_view() is view
            assert view_answers(view) == reference_answers(directory)

    def test_each_step_kind_moves_the_view(self):
        """Each kind of step the churn draws moves the counts when it
        should, so the comparison above is not between empty views."""
        directory = new_directory()
        view = directory._allocation_view()
        steps = [
            (("announce", (1, "a", 1, 1, GROUPS[3], 63)), True),
            (("announce", (2, "b", 2, 1, UNMAPPED, 15)), False),
            (("refresh", (0,)), False),
            (("reversion", (0, 1, GROUPS[5], 127)), True),
            (("collide", (0, GROUPS[6], 31)), True),
            (("create", (200,)), True),
            (("retreat", (0,)), True),
            (("delete", (0,)), True),
            (("withdraw-relocate", (0, 2)), True),
            (("delete", (0,)), True),
        ]
        before = view_answers(view)
        for step, moves in steps:
            apply_step(directory, step)
            after = view_answers(view)
            assert after == reference_answers(directory)
            assert (after != before) is moves, step
            before = after
        assert len(view) == 0
