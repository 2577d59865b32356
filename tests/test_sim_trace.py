"""Tracer tests, including directory instrumentation."""

import numpy as np
import pytest

from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.sap.directory import SessionDirectory
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel
from repro.sim.trace import Tracer, trace_directory

SPACE = MulticastAddressSpace.abstract(64)


def full_mesh(source, ttl):
    return [(node, 0.01) for node in range(3)]


class TestTracer:
    def test_records_in_time_order_with_timestamps(self):
        sched = EventScheduler()
        tracer = Tracer(sched)
        tracer.emit("a", "first")
        sched.schedule(5.0, lambda: tracer.emit("b", "second", node=2))
        sched.run()
        records = tracer.records()
        assert [r.time for r in records] == [0.0, 5.0]
        assert records[1].node == 2

    def test_filters(self):
        sched = EventScheduler()
        tracer = Tracer(sched)
        tracer.emit("rx", "one", node=1)
        tracer.emit("tx", "two", node=2)
        tracer.emit("rx", "three", node=2)
        assert len(tracer.records(category="rx")) == 2
        assert len(tracer.records(node=2)) == 2
        assert len(tracer.records(category="rx", node=2)) == 1

    def test_since_filter(self):
        sched = EventScheduler()
        tracer = Tracer(sched)
        tracer.emit("a", "early")
        sched.schedule(10.0, lambda: tracer.emit("a", "late"))
        sched.run()
        assert len(tracer.records(since=5.0)) == 1

    def test_capacity_drops_oldest(self):
        sched = EventScheduler()
        tracer = Tracer(sched, capacity=3)
        for i in range(5):
            tracer.emit("a", f"m{i}")
        assert len(tracer) == 3
        assert tracer.dropped == 2
        assert tracer.records()[0].message == "m2"

    def test_format(self):
        sched = EventScheduler()
        tracer = Tracer(sched)
        tracer.emit("defend", "holding", node=4, address=9)
        text = tracer.format_timeline()
        assert "defend" in text
        assert "n4" in text
        assert "address=9" in text

    def test_invalid_capacity(self):
        with pytest.raises(ValueError):
            Tracer(EventScheduler(), capacity=0)


class TestTraceDirectory:
    def test_traces_rx_and_clash_actions(self):
        sched = EventScheduler()
        net = NetworkModel(sched, full_mesh)
        tracer = Tracer(sched)

        def make(node):
            rng = np.random.default_rng(node)
            return SessionDirectory(
                node, sched, net,
                InformedRandomAllocator(SPACE.size, rng), SPACE,
                rng=rng,
            )

        alice, bob = make(0), make(1)
        trace_directory(tracer, alice)
        trace_directory(tracer, bob)
        session = alice.create_session("old", ttl=63)
        sched.run(until=50.0)
        # Rig a clash so the protocol acts.
        own_bob = bob.create_session("new", ttl=63)
        bob_own = bob.own_sessions()[0]
        bob.relocate(bob_own, session.address)
        bob_own.announcer.announce_now()
        sched.run(until=60.0)

        assert len(tracer.records(category="rx")) > 0
        assert len(tracer.records(category="defend")) >= 1
        assert len(tracer.records(category="retreat")) >= 1
        timeline = tracer.format_timeline()
        assert "moved 'new'" in timeline
