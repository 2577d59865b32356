"""Session directory integration tests on a tiny full-mesh network."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.address_space import MulticastAddressSpace
from repro.core.allocator import OccupancyView
from repro.core.informed import InformedRandomAllocator
from repro.core.partitions import IPR3_EDGES, PartitionMap
from repro.sap.clash_protocol import ClashPolicy
from repro.sap.directory import MAX_SPACE_SIZE, SessionDirectory
from repro.sap.messages import SapMessage
from repro.sap.response_timer import UniformDelayTimer
from repro.sap.sdp import SessionDescription
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel

SPACE = MulticastAddressSpace.abstract(64)


def full_mesh(source, ttl, nodes=4, delay=0.01):
    return [(node, delay) for node in range(nodes)]


def make_directory(node, sched, net, seed=None, **kwargs):
    rng = np.random.default_rng(seed if seed is not None else node)
    allocator = InformedRandomAllocator(SPACE.size, rng)
    return SessionDirectory(node, sched, net, allocator, SPACE,
                            rng=rng, **kwargs)


@pytest.fixture
def sched():
    return EventScheduler()


@pytest.fixture
def net(sched):
    return NetworkModel(sched, full_mesh)


@pytest.fixture(scope="module")
def steady_1998():
    """The steady churn harness at seed 1998, run to its 600 s
    horizon; returns ``(scheduler, directories)``."""
    from repro.obs.scenarios import build_steady

    scheduler, directories = build_steady(1998)
    scheduler.run(until=600.0)
    return scheduler, directories


class TestDiscovery:
    def test_peer_learns_session(self, sched, net):
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net)
        session = alice.create_session("seminar", ttl=63)
        sched.run(until=1.0)
        names = [d.name for d in bob.known_sessions()]
        assert names == ["seminar"]
        entry = bob.cache.entries()[0]
        assert entry.address_index == session.address
        assert entry.ttl == 63

    def test_allocator_avoids_discovered_addresses(self, sched, net):
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net)
        taken = {alice.create_session(f"s{i}", ttl=63).address
                 for i in range(40)}
        sched.run(until=1.0)
        new = bob.create_session("mine", ttl=63)
        assert new.address not in taken

    def test_delete_session_clears_peers(self, sched, net):
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net)
        session = alice.create_session("temp", ttl=63)
        sched.run(until=1.0)
        assert len(bob.cache) == 1
        alice.delete_session(session)
        sched.run(until=2.0)
        assert len(bob.cache) == 0
        assert alice.own_sessions() == []

    def test_delete_foreign_session_raises(self, sched, net):
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net)
        session = alice.create_session("temp", ttl=63)
        with pytest.raises(KeyError):
            bob.delete_session(session)

    def test_own_sessions_included_in_allocation_view(self, sched, net):
        alice = make_directory(0, sched, net)
        taken = {alice.create_session(f"s{i}", ttl=63).address
                 for i in range(30)}
        assert len(taken) == 30  # never reused its own addresses

    def test_cache_expiry_via_directory(self, sched, net):
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net)
        session = alice.create_session("temp", ttl=63)
        sched.run(until=1.0)
        # Silence alice, then advance beyond the cache timeout.
        alice.own_sessions()[0].announcer.stop()
        sched.run(until=5000.0)
        assert bob.expire_cache() == 1
        assert len(bob.cache) == 0


class TestSessionLifetime:
    def test_session_expires_and_is_withdrawn(self, sched, net):
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net)
        alice.create_session("short", ttl=63, lifetime=100.0)
        sched.run(until=1.0)
        assert len(bob.cache) == 1
        sched.run(until=200.0)
        assert alice.own_sessions() == []
        assert len(bob.cache) == 0  # deletion message removed it

    def test_manual_delete_before_expiry_is_safe(self, sched, net):
        alice = make_directory(0, sched, net)
        session = alice.create_session("short", ttl=63, lifetime=100.0)
        sched.run(until=1.0)
        alice.delete_session(session)
        # The expiry timer fires later and must be a no-op.
        sched.run(until=200.0)
        assert alice.own_sessions() == []

    def test_unbounded_sessions_stay(self, sched, net):
        alice = make_directory(0, sched, net)
        alice.create_session("forever", ttl=63)
        sched.run(until=10_000.0)
        assert len(alice.own_sessions()) == 1


class TestSpaceBound:
    """A directory counts every address of its space, so the space is
    bounded by sdr's dynamic range."""

    @pytest.mark.parametrize("space", [
        MulticastAddressSpace.full_ipv4(),
        MulticastAddressSpace.abstract(MAX_SPACE_SIZE + 1),
    ], ids=["full-ipv4", "abstract-65537"])
    def test_larger_space_rejected(self, sched, net, space):
        allocator = InformedRandomAllocator(
            space.size, np.random.default_rng(0))
        with pytest.raises(ValueError, match="at most 65536"):
            SessionDirectory(0, sched, net, allocator, space)
        assert net._listeners == {}  # raised before it listened

    def test_sdr_dynamic_range_allocates(self, sched, net):
        space = MulticastAddressSpace.sdr_dynamic()
        assert space.size == MAX_SPACE_SIZE
        rng = np.random.default_rng(0)
        directory = SessionDirectory(
            0, sched, net, InformedRandomAllocator(space.size, rng), space,
            rng=rng)
        session = directory.create_session("wide", ttl=127)
        assert 0 <= session.address < space.size
        assert len(directory._allocation_view()) == 1


def rig_clash(directory, address):
    """Point a directory's (single) own session at ``address``."""
    own = directory.own_sessions()[0]
    directory.relocate(own, address)
    own.description.version += 1
    return own


class TestClashPhases:
    def test_phase1_established_session_defends(self, sched, net):
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net, enable_clash_protocol=False)
        session = alice.create_session("old", ttl=63)
        sched.run(until=100.0)  # alice's session is now established
        bob.create_session("new", ttl=63)
        own_bob = rig_clash(bob, session.address)
        alice_before = alice.own_sessions()[0].announcer.announcements_sent
        own_bob.announcer.announce_now()
        sched.run(until=101.0)
        alice_after = alice.own_sessions()[0].announcer.announcements_sent
        assert alice.clash_handler.clashes_seen >= 1
        assert alice_after > alice_before  # immediate re-announcement
        assert alice.address_changes == 0  # defended, did not move

    def test_phase2_newcomer_retreats(self, sched, net):
        alice = make_directory(0, sched, net, enable_clash_protocol=False)
        bob = make_directory(1, sched, net,
                             clash_policy=ClashPolicy(recent_window=30.0))
        session = alice.create_session("old", ttl=63)
        sched.run(until=50.0)
        bob.create_session("new", ttl=63)
        own_bob = rig_clash(bob, session.address)
        # Alice's next periodic announcement reaches bob while bob's
        # session is still inside the recent window.
        alice.own_sessions()[0].announcer.announce_now()
        sched.run(until=51.0)
        assert bob.address_changes == 1
        assert own_bob.session.address != session.address
        assert bob.clash_handler.retreats == 1

    def test_phase3_third_party_defends_partitioned_origin(self, sched,
                                                           net):
        fast_timer = ClashPolicy(
            recent_window=30.0,
            timer_factory=lambda rng: UniformDelayTimer(1.0, 1.0, rng),
        )
        slow_timer = ClashPolicy(
            recent_window=30.0,
            timer_factory=lambda rng: UniformDelayTimer(5.0, 5.0, rng),
        )
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net)
        carol = make_directory(2, sched, net, clash_policy=fast_timer)
        dave = make_directory(3, sched, net, clash_policy=slow_timer)
        session = alice.create_session("old", ttl=63)
        sched.run(until=50.0)
        # Alice is partitioned: she can no longer hear anything.
        net.unlisten(0)
        bob.create_session("new", ttl=63)
        own_bob = rig_clash(bob, session.address)
        own_bob.announcer.announce_now()
        sched.run(until=60.0)
        # Carol (fast timer) proxied the defence; Dave was suppressed.
        assert carol.clash_handler.defences_sent == 1
        assert dave.clash_handler.defences_sent == 0
        # Bob saw the defence within his recent window and retreated.
        assert bob.address_changes >= 1
        assert own_bob.session.address != session.address

    def test_third_party_suppressed_when_origin_defends(self, sched, net):
        policy = ClashPolicy(
            recent_window=30.0,
            timer_factory=lambda rng: UniformDelayTimer(2.0, 2.0, rng),
        )
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net)
        carol = make_directory(2, sched, net, clash_policy=policy)
        session = alice.create_session("old", ttl=63)
        sched.run(until=50.0)
        bob.create_session("new", ttl=63)
        own_bob = rig_clash(bob, session.address)
        own_bob.announcer.announce_now()
        sched.run(until=60.0)
        # Alice defended herself immediately (phase 1), so carol's
        # pending third-party defence found a fresher last_heard and
        # stayed silent.
        assert carol.clash_handler.defences_sent == 0

    def test_clash_protocol_disabled(self, sched, net):
        alice = make_directory(0, sched, net,
                               enable_clash_protocol=False)
        assert alice.clash_handler is None

    def test_simultaneous_newcomers_tiebreak_moves_one(self, sched, net):
        """Two sessions announced in the same instant with the same
        address: the deterministic tie-break makes exactly one side
        retreat and the other stand (no retreat livelock)."""
        alice = make_directory(0, sched, net)
        bob = make_directory(1, sched, net)
        a = alice.create_session("left", ttl=63)
        bob.create_session("right", ttl=63)
        own_bob = rig_clash(bob, a.address)
        own_bob.announcer.announce_now()
        sched.run(until=10.0)
        assert alice.address_changes + bob.address_changes == 1
        assert (alice.own_sessions()[0].session.address
                != bob.own_sessions()[0].session.address)

    def test_defence_rate_limited(self, sched, net):
        """A peer re-announcing a clashing session every 100 ms cannot
        provoke more than ~1 defence per defend_interval."""
        alice = make_directory(
            0, sched, net,
            clash_policy=ClashPolicy(recent_window=1.0,
                                     defend_interval=1.0),
        )
        bob = make_directory(1, sched, net, enable_clash_protocol=False)
        session = alice.create_session("old", ttl=63)
        sched.run(until=50.0)  # alice's session is established
        bob.create_session("new", ttl=63)
        own_bob = rig_clash(bob, session.address)
        before = alice.own_sessions()[0].announcer.announcements_sent
        for i in range(20):
            sched.schedule(0.1 * i, own_bob.announcer.announce_now)
        sched.run(until=52.5)
        defences = (alice.own_sessions()[0].announcer.announcements_sent
                    - before)
        # 20 provocations in ~2 s, defend_interval 1 s => at most 3-4
        # defences (plus nothing else).
        assert 1 <= defences <= 4

    def test_steady_harness_counts_every_phase(self, steady_1998):
        """The clash handler's counters over the steady churn harness
        (seed 1998, 8 sites, 600 s), summed over its sites."""
        __, directories = steady_1998
        handlers = [d.clash_handler for d in directories]
        totals = {name: sum(getattr(h, name) for h in handlers)
                  for name in ("clashes_seen", "own_defences", "retreats",
                               "proxy_suppressed", "defences_sent")}
        assert totals == {
            "clashes_seen": 10_332,
            "own_defences": 507,       # phase 1, after the rate limit
            "retreats": 278,           # phase 2
            "proxy_suppressed": 2_491,  # phase 3, someone answered first
            "defences_sent": 684,      # phase 3, fired
        }

    def test_steady_harness_end_state(self, steady_1998):
        """Where the same run ends: every session has expired, and each
        site's (moves, cache size, announcements received)."""
        scheduler, directories = steady_1998
        assert (scheduler.now, scheduler.events_run) == (600.0, 17_826)
        assert [d.own_sessions() for d in directories] == [[]] * 8
        assert [(d.address_changes, len(d.cache),
                 d.announcements_received) for d in directories] == [
            (0, 16, 1357), (20, 18, 1377), (11, 20, 1433), (27, 18, 1237),
            (38, 17, 1371), (37, 20, 1412), (32, 20, 1433), (113, 18, 1256),
        ]


# --------------------------------------------------------------------
# The own-session index against a filter of own_sessions().
# --------------------------------------------------------------------

#: A space this small puts several own sessions at one address.
TINY = MulticastAddressSpace.abstract(4)

OWN_STEPS = st.lists(st.tuples(
    st.sampled_from(("create", "retreat", "relocate", "delete")),
    st.integers(0, 15),
    st.integers(0, TINY.size - 1),
), max_size=30)


def tiny_directory():
    sched = EventScheduler()
    net = NetworkModel(sched, lambda source, ttl: [])
    rng = np.random.default_rng(0)
    return SessionDirectory(
        0, sched, net, InformedRandomAllocator(TINY.size, rng), TINY,
        rng=rng)


def apply_own_step(directory, step):
    """Create (with a TTL from ``pick``), retreat, relocate or delete."""
    kind, pick, address = step
    owns = directory.own_sessions()
    if kind == "create":
        directory.create_session("s", ttl=1 + 16 * pick)
    elif owns:
        own = owns[pick % len(owns)]
        if kind == "retreat":
            directory.retreat(own)
        elif kind == "relocate":
            directory.relocate(own, address)
        else:
            directory.delete_session(own.session)


class TestOwnSessionIndex:
    @given(OWN_STEPS)
    @settings(max_examples=150, deadline=None)
    def test_index_matches_filtered_scan(self, steps):
        directory = tiny_directory()
        for step in steps:
            apply_own_step(directory, step)
            for at in range(TINY.size):
                expected = [own for own in directory.own_sessions()
                            if own.session.address == at]
                assert [id(own) for own in directory.own_sessions_at(at)] \
                    == [id(own) for own in expected]

    @given(OWN_STEPS)
    @settings(max_examples=150, deadline=None)
    def test_allocation_view_matches_own_sessions_and_cache(self, steps):
        directory = tiny_directory()
        cached = [(1, 15), (3, 127)]
        for session_id, (address, ttl) in enumerate(cached, start=1):
            theirs = SessionDescription(
                name="theirs", session_id=session_id, ttl=ttl,
                connection_address=TINY.index_to_ip(address))
            directory.cache.observe(
                SapMessage.announce(9, theirs.format()), 0.0,
                address_of=directory._address_of)
        ipr3 = PartitionMap(IPR3_EDGES)
        for step in steps:
            apply_own_step(directory, step)
            pairs = cached + [(own.session.address, own.session.ttl)
                              for own in directory.own_sessions()]
            expected = OccupancyView.from_pairs(
                [a for a, __ in pairs], [t for __, t in pairs], TINY.size)
            view = directory._allocation_view()
            assert len(view) == len(pairs)
            assert view.free_offsets(0, TINY.size).tolist() == \
                expected.free_offsets(0, TINY.size).tolist()
            for min_ttl in (1, 15, 64):
                assert view.band_counts(ipr3, min_ttl) == \
                    expected.band_counts(ipr3, min_ttl)

    def test_relocate_sets_both_addresses_only(self, sched, net):
        alice = make_directory(0, sched, net)
        alice.create_session("talk", ttl=63)
        own = alice.own_sessions()[0]
        alice.relocate(own, 5)
        assert own.session.address == 5
        assert own.description.connection_address == SPACE.index_to_ip(5)
        assert own.description.version == 1
        assert alice.address_changes == 0
        [moved] = alice.own_sessions_at(5)
        assert moved is own

    def test_retreat_after_delete_leaves_no_index(self, sched, net):
        """Retreating a withdrawn session moves it but puts it back in
        neither index, so its new address is not held."""
        alice = make_directory(0, sched, net)
        session = alice.create_session("talk", ttl=63)
        own = alice.own_sessions()[0]
        alice.delete_session(session)
        alice.retreat(own)
        assert len(alice._allocation_view()) == 0
        assert alice._own_by_address == {}
