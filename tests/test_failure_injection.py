"""Failure injection: partitions, healing, crash/restart, storms.

These exercise the paper's motivating failure cases end-to-end:

* §3 phase 1 — "existing sessions can only be disrupted by other
  existing sessions that had not been known due to network
  partitioning": we create the clash by partitioning, then heal and
  watch the protocol.
* directory restart;
* announcement storms being bounded by the defence rate limit.
"""

import numpy as np
import pytest

from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.sap.clash_protocol import ClashPolicy
from repro.sap.directory import SessionDirectory
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel, Packet

SPACE = MulticastAddressSpace.abstract(64)
NUM = 6


def full_mesh(source, ttl):
    return [(node, 0.01) for node in range(NUM)]


@pytest.fixture
def world():
    sched = EventScheduler()
    net = NetworkModel(sched, full_mesh)

    def make(node, **kwargs):
        rng = np.random.default_rng(node)
        return SessionDirectory(
            node, sched, net,
            InformedRandomAllocator(SPACE.size, rng), SPACE, rng=rng,
            **kwargs,
        )

    return sched, net, make


class TestPartitionMechanics:
    def test_partition_blocks_cross_side_delivery(self, world):
        sched, net, make = world
        alice, bob = make(0), make(1)
        net.partition({0})
        alice.create_session("isolated", ttl=63)
        sched.run(until=5.0)
        assert len(bob.cache) == 0

    def test_same_side_delivery_continues(self, world):
        sched, net, make = world
        alice, bob, carol = make(0), make(1), make(2)
        net.partition({0, 1})
        alice.create_session("west side", ttl=63)
        sched.run(until=5.0)
        assert len(bob.cache) == 1
        assert len(carol.cache) == 0

    def test_heal_restores_delivery(self, world):
        sched, net, make = world
        alice, bob = make(0), make(1)
        net.partition({0})
        session = alice.create_session("hidden", ttl=63)
        sched.run(until=5.0)
        net.heal()
        alice.own_sessions()[0].announcer.announce_now()
        sched.run(until=10.0)
        assert len(bob.cache) == 1


class TestPartitionHealingClash:
    def test_clash_created_during_partition_is_detected(self, world):
        """Both sides allocate the same address while split; after
        healing, the established-vs-established clash is detected at
        both sites and both defend (as §3 specifies), without a storm."""
        sched, net, make = world
        alice = make(0, clash_policy=ClashPolicy(recent_window=5.0,
                                                 defend_interval=2.0))
        bob = make(1, clash_policy=ClashPolicy(recent_window=5.0,
                                               defend_interval=2.0))
        net.partition({0})
        a = alice.create_session("west", ttl=63)
        b = bob.create_session("east", ttl=63)
        # Force the same address (each side believes it is free).
        bob_own = bob.own_sessions()[0]
        bob.relocate(bob_own, a.address)
        sched.run(until=60.0)  # both sessions become established
        net.heal()
        alice.own_sessions()[0].announcer.announce_now()
        bob_own.announcer.announce_now()
        sched.run(until=120.0)
        assert alice.clash_handler.clashes_seen >= 1
        assert bob.clash_handler.clashes_seen >= 1
        # Neither side retreated (both established: phase 1, not 2).
        assert alice.address_changes == 0
        assert bob.address_changes == 0
        # The rate limiter kept the mutual defence exchange bounded:
        # at one defence per 2 s per side, 60 s permits <= ~31 each.
        total = (alice.own_sessions()[0].announcer.announcements_sent
                 + bob.own_sessions()[0].announcer.announcements_sent)
        assert total < 80


class TestRestartRecovery:
    def test_cold_restart_loses_view_until_reannouncement(self, world):
        sched, net, make = world
        alice = make(0)
        old_bob = make(1)  # listening before the first announcement
        alice.create_session("talk", ttl=63)
        sched.run(until=5.0)
        assert len(old_bob.cache) == 1
        # Bob's directory crashes: stop listening, state lost.
        net.unlisten(1)
        new_bob = make(1)
        assert len(new_bob.cache) == 0
        # Only after the next periodic re-announcement (600 s) does
        # the cold-started directory learn the session again.
        sched.run(until=400.0)
        assert len(new_bob.cache) == 0
        sched.run(until=700.0)
        assert len(new_bob.cache) == 1


class TestMalformedTraffic:
    def test_garbage_packets_ignored(self, world):
        sched, net, make = world
        bob = make(1)
        net.send(Packet(source=0, group=0, ttl=63, payload=b"\x00"))
        net.send(Packet(source=0, group=0, ttl=63,
                        payload=b"\x20\x00\x00\x01\x00\x00\x00\x02not sdp"))
        sched.run()
        assert len(bob.cache) == 0

    def test_deletion_for_unknown_session_harmless(self, world):
        sched, net, make = world
        bob = make(1)
        from repro.sap.messages import SapMessage
        message = SapMessage.delete(9, "v=0\ns=ghost\n")
        net.send(Packet(source=9, group=0, ttl=63,
                        payload=message.encode()))
        sched.run()
        assert len(bob.cache) == 0
