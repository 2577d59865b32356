"""Network model tests: delivery, scoping hook, loss, jitter."""

import numpy as np
import pytest

from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel, Packet
from repro.sim.rng import RandomStreams


def star_receiver_map(source, ttl):
    """Everyone (0..4) hears everyone; delay = 0.01 * receiver id."""
    return [(node, 0.01 * node) for node in range(5)]


def ttl_limited_map(source, ttl):
    """Node i requires ttl >= i to be reached."""
    return [(node, 0.01) for node in range(5) if ttl >= node]


@pytest.fixture
def sched():
    return EventScheduler()


class TestNetworkModel:
    def test_delivers_to_listeners_with_delay(self, sched):
        net = NetworkModel(sched, star_receiver_map)
        got = []
        net.listen(2, lambda node, pkt: got.append((node, sched.now)))
        net.send(Packet(source=0, group=0, ttl=16))
        sched.run()
        assert got == [(2, pytest.approx(0.02))]

    def test_sender_does_not_hear_itself(self, sched):
        net = NetworkModel(sched, star_receiver_map)
        got = []
        net.listen(0, lambda node, pkt: got.append(node))
        net.listen(1, lambda node, pkt: got.append(node))
        net.send(Packet(source=0, group=0, ttl=16))
        sched.run()
        assert got == [1]

    def test_non_listeners_skipped(self, sched):
        net = NetworkModel(sched, star_receiver_map)
        count = net.send(Packet(source=0, group=0, ttl=16))
        assert count == 0

    def test_ttl_passed_to_receiver_map(self, sched):
        net = NetworkModel(sched, ttl_limited_map)
        got = []
        for node in range(5):
            net.listen(node, lambda n, p: got.append(n))
        net.send(Packet(source=0, group=0, ttl=2))
        sched.run()
        assert sorted(got) == [1, 2]

    def test_unlisten_stops_delivery(self, sched):
        net = NetworkModel(sched, star_receiver_map)
        got = []
        net.listen(1, lambda n, p: got.append(n))
        net.unlisten(1)
        net.send(Packet(source=0, group=0, ttl=16))
        sched.run()
        assert got == []

    def test_full_loss_drops_everything(self, sched):
        net = NetworkModel(sched, star_receiver_map,
                           streams=RandomStreams(0), loss_rate=1.0)
        got = []
        net.listen(1, lambda n, p: got.append(n))
        net.send(Packet(source=0, group=0, ttl=16))
        sched.run()
        assert got == []
        assert net.packets_lost == 1

    def test_loss_rate_statistics(self, sched):
        net = NetworkModel(sched, star_receiver_map,
                           streams=RandomStreams(3), loss_rate=0.3)
        hits = []
        for node in range(1, 5):
            net.listen(node, lambda n, p: hits.append(n))
        for __ in range(500):
            net.send(Packet(source=0, group=0, ttl=16))
        sched.run()
        # 4 receivers * 500 sends * 0.7 expected delivery.
        assert 1250 <= len(hits) <= 1550

    def test_jitter_spreads_delivery_times(self, sched):
        net = NetworkModel(sched, star_receiver_map,
                           streams=RandomStreams(1), jitter=0.5)
        times = []
        net.listen(1, lambda n, p: times.append(sched.now))
        for __ in range(50):
            net.send(Packet(source=0, group=0, ttl=16))
        sched.run()
        assert max(times) - min(times) > 0.1
        assert all(t >= 0.01 for t in times)

    def test_invalid_loss_rejected(self, sched):
        with pytest.raises(ValueError):
            NetworkModel(sched, star_receiver_map, loss_rate=2.0)

    def test_invalid_jitter_rejected(self, sched):
        with pytest.raises(ValueError):
            NetworkModel(sched, star_receiver_map, jitter=-0.1)

    def test_packet_stamped_with_send_time(self, sched):
        net = NetworkModel(sched, star_receiver_map)
        packet = Packet(source=0, group=0, ttl=16)
        sched.schedule(3.0, lambda: net.send(packet))
        sched.run()
        assert packet.sent_at == 3.0

    def test_counters(self, sched):
        net = NetworkModel(sched, star_receiver_map)
        net.listen(1, lambda n, p: None)
        net.listen(2, lambda n, p: None)
        net.send(Packet(source=0, group=0, ttl=16))
        sched.run()
        assert net.packets_sent == 1
        assert net.packets_delivered == 2


# --------------------------------------------------------------------
# One vector draw per stream per send, against the per-receiver loop
# it replaced.  The traces rest on these doubles, so a numpy release
# that changed either form must fail here rather than move them.
# --------------------------------------------------------------------

MESH = 8


def mesh_receiver_map(source, ttl):
    """Every node, the sender included, in an order that depends on the
    sender; node i needs ttl >= 2 * i, and delays differ per pair."""
    order = range(MESH) if source % 2 else reversed(range(MESH))
    return [(node, 0.01 + 0.003 * ((source + 5 * node) % 7))
            for node in order if ttl >= 2 * node]


def reference_send(net, packet, loss_rng, jitter_rng):
    """The per-receiver loop with scalar draws: (receiver, delay) pairs
    scheduled, and the number lost."""
    scheduled, lost = [], 0
    for receiver, delay in net.receiver_map(packet.source, packet.ttl):
        if receiver == packet.source:
            continue
        if receiver not in net._listeners:
            continue
        partition = net._partition
        if partition is not None and \
                (packet.source in partition) != (receiver in partition):
            continue
        if net.loss_rate and loss_rng.random() < net.loss_rate:
            lost += 1
            continue
        total_delay = delay
        if net.jitter:
            total_delay += jitter_rng.uniform(0.0, net.jitter)
        scheduled.append((receiver, total_delay))
    return scheduled, lost


class TestVectorDraws:
    @pytest.mark.parametrize("loss_rate, jitter", [
        (0.3, 0.01), (0.3, 0.0), (0.0, 0.5), (0.0, 0.0)])
    def test_matches_per_receiver_loop(self, sched, loss_rate, jitter):
        net = NetworkModel(sched, mesh_receiver_map,
                           streams=RandomStreams(11), loss_rate=loss_rate,
                           jitter=jitter)
        got = []
        for node in range(MESH - 1):  # the last node does not listen
            net.listen(node, lambda n, p: got.append((n, sched.now)))
        reference = RandomStreams(11)
        loss_rng = reference.get("net.loss")
        jitter_rng = reference.get("net.jitter")
        draws = np.random.default_rng(4)
        expected, lost = [], 0
        for index in range(3000):
            # A partition is in force for the middle third of the sends.
            if index == 1000:
                net.partition({0, 2, 5})
            elif index == 2000:
                net.heal()
            packet = Packet(source=int(draws.integers(0, MESH)), group=0,
                            ttl=int(draws.integers(1, 2 * MESH)))
            sched.run(until=float(index))
            pairs, dropped = reference_send(net, packet, loss_rng,
                                            jitter_rng)
            assert net.send(packet) == len(pairs)
            # Deliveries fire in time order, ties in scheduling order.
            expected.extend(sorted(
                ((receiver, index + delay) for receiver, delay in pairs),
                key=lambda pair: pair[1]))
            lost += dropped
        sched.run()
        assert got == expected
        assert net.packets_lost == lost
        assert net.packets_delivered == len(expected)
        for name, rng in (("net.loss", loss_rng),
                          ("net.jitter", jitter_rng)):
            assert (net.streams.get(name).bit_generator.state
                    == rng.bit_generator.state)

    def test_uniform_is_range_times_random(self):
        scalar = np.random.default_rng(7)
        vector = np.random.default_rng(7)
        draws = np.array([scalar.uniform(0.0, 0.01)
                          for __ in range(100_000)])
        scaled = 0.01 * vector.random(100_000)
        assert draws.view(np.uint64).tolist() == \
            scaled.view(np.uint64).tolist()
        assert scalar.bit_generator.state == vector.bit_generator.state


# --------------------------------------------------------------------
# A send's eligible receivers are resolved once per (source, ttl) and
# kept until the next listen() or unlisten().
# --------------------------------------------------------------------

class CountingMap:
    """A receiver map that counts its calls per (source, ttl)."""

    def __init__(self, receiver_map):
        self.receiver_map = receiver_map
        self.calls = {}

    def __call__(self, source, ttl):
        self.calls[(source, ttl)] = self.calls.get((source, ttl), 0) + 1
        return self.receiver_map(source, ttl)


def listen_all(net, nodes, got, sched):
    for node in nodes:
        net.listen(node, lambda n, p: got.append((n, sched.now)))


class TestFanoutCache:
    def test_receiver_map_called_once_per_source_and_ttl(self, sched):
        counting = CountingMap(mesh_receiver_map)
        net = NetworkModel(sched, counting)
        got = []
        listen_all(net, range(MESH), got, sched)
        for __ in range(5):
            for source in (0, 3):
                for ttl in (4, 15):
                    net.send(Packet(source=source, group=0, ttl=ttl))
        assert counting.calls == {(0, 4): 1, (0, 15): 1,
                                  (3, 4): 1, (3, 15): 1}
        sched.run()
        # 5 rounds: source 0 reaches nodes 1-2 at ttl 4 and 1-7 at
        # ttl 15; source 3 reaches 0-2 at ttl 4 and the 7 others at 15.
        assert len(got) == 5 * (2 + 7 + 3 + 7)

    def test_listen_and_unlisten_change_the_next_send(self, sched):
        counting = CountingMap(star_receiver_map)
        net = NetworkModel(sched, counting)
        got = []
        sends = []

        def send():
            sends.append(net.send(Packet(source=0, group=0, ttl=16)))
            sched.run()

        net.listen(1, lambda n, p: got.append(n))
        send()
        net.listen(2, lambda n, p: got.append(n))
        send()
        net.unlisten(1)
        send()
        net.unlisten(2, got.append)  # not one of 2's callbacks
        send()
        assert sends == [1, 2, 1, 1]
        assert got == [1, 1, 2, 2, 2]
        assert counting.calls == {(0, 16): 4}

    def test_partition_filters_every_send(self, sched):
        counting = CountingMap(star_receiver_map)
        net = NetworkModel(sched, counting)
        for node in range(5):
            net.listen(node, lambda n, p: None)
        sends = []
        for step in range(4):
            if step == 1:
                net.partition({0, 3})
            elif step == 3:
                net.heal()
            sends.append(net.send(Packet(source=0, group=0, ttl=16)))
        assert sends == [4, 1, 1, 4]
        assert counting.calls == {(0, 16): 1}

    @pytest.mark.parametrize("loss_rate, jitter", [(0.3, 0.01), (0.0, 0.5)])
    def test_matches_reference_across_listener_changes(self, sched,
                                                       loss_rate, jitter):
        # The reference resolves the receivers afresh on every send;
        # listeners come and go, so the cache is rebuilt many times.
        net = NetworkModel(sched, mesh_receiver_map,
                           streams=RandomStreams(5), loss_rate=loss_rate,
                           jitter=jitter)
        got = []
        listen_all(net, range(MESH - 1), got, sched)
        reference = RandomStreams(5)
        loss_rng = reference.get("net.loss")
        jitter_rng = reference.get("net.jitter")
        draws = np.random.default_rng(6)
        expected = []
        for index in range(1500):
            packet = Packet(source=int(draws.integers(0, MESH)), group=0,
                            ttl=int(draws.integers(1, 2 * MESH)))
            # Every delay is under a second, so nothing is in flight
            # when the listeners change.
            sched.run(until=float(index))
            if index % 100 == 50:
                node = int(draws.integers(0, MESH))
                if node in net._listeners:
                    net.unlisten(node)
                else:
                    listen_all(net, [node], got, sched)
            if index == 700:
                net.partition({1, 4, 6})
            elif index == 1100:
                net.heal()
            pairs, __ = reference_send(net, packet, loss_rng, jitter_rng)
            assert net.send(packet) == len(pairs)
            expected.extend(sorted(
                ((receiver, index + delay) for receiver, delay in pairs),
                key=lambda pair: pair[1]))
        sched.run()
        assert got == expected
        for name, rng in (("net.loss", loss_rng),
                          ("net.jitter", jitter_rng)):
            assert (net.streams.get(name).bit_generator.state
                    == rng.bit_generator.state)
