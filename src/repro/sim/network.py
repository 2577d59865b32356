"""Lossy, delayed multicast packet delivery.

The network model deliberately sits *above* routing: a routing component
supplies, for each (source, ttl) pair, the set of receivers and the
one-way propagation delay to each.  The network model then applies loss
and jitter and schedules per-receiver delivery events.

This mirrors the modelling level used throughout the paper — §2.3 works
with a mean end-to-end delay and a mean end-to-end loss rate rather than
hop-by-hop behaviour.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterable, List, Optional, Tuple

from repro.sim.events import EventScheduler
from repro.sim.rng import RandomStreams
from repro.sim.types import SimTime, Ttl

# A routing oracle: (source, ttl) -> iterable of (receiver, delay_seconds).
ReceiverMap = Callable[[int, int], Iterable[Tuple[int, float]]]
# Per-receiver delivery callback: (receiver, packet) -> None.
DeliveryCallback = Callable[[int, "Packet"], None]


@dataclass
class Packet:
    """A multicast packet as seen by the simulator.

    Attributes:
        source: node id of the sender.
        group: multicast group address (opaque integer).
        ttl: IP TTL the packet was sent with.
        payload: application payload (e.g. a SAP message).
        sent_at: simulated send time, stamped by the network model.
    """

    source: int
    group: int
    ttl: Ttl
    payload: Any = None
    sent_at: SimTime = field(default=0.0)


class NetworkModel:
    """End-to-end multicast delivery with loss and optional jitter.

    A send's eligible receivers (the receiver map's pairs, minus the
    sender, minus nodes with no listener) are resolved once per
    ``(source, ttl)`` and kept until the next :meth:`listen` or
    :meth:`unlisten`.  The receiver map must therefore be a pure
    function of ``(source, ttl)``, and it is not reassigned after
    construction.  The partition filter and the loss and jitter draws
    still run on every send.

    Args:
        scheduler: the event scheduler driving the simulation.
        receiver_map: routing oracle returning (receiver, delay) pairs for
            a (source, ttl) send; a pure function of its arguments.
        streams: random streams used for loss and jitter draws.
        loss_rate: end-to-end loss probability applied independently per
            receiver (the paper's §2.3 uses a mean rate of 2%).
        jitter: if non-zero, a uniform random [0, jitter] seconds is added
            to each delivery (models queueing variation, §3).
    """

    def __init__(
        self,
        scheduler: EventScheduler,
        receiver_map: ReceiverMap,
        streams: Optional[RandomStreams] = None,
        loss_rate: float = 0.0,
        jitter: float = 0.0,
    ) -> None:
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(f"loss_rate must be a probability: {loss_rate}")
        if jitter < 0:
            raise ValueError(f"jitter must be non-negative: {jitter}")
        self.scheduler = scheduler
        self.receiver_map = receiver_map
        self.streams = streams if streams is not None else RandomStreams()
        self.loss_rate = loss_rate
        self.jitter = jitter
        self._listeners: Dict[int, list] = {}
        #: Eligible (receiver, delay) pairs per (source, ttl), in
        #: receiver-map order; cleared by listen() and unlisten().
        self._fanout: Dict[Tuple[int, int], List[Tuple[int, float]]] = {}
        self._partition: Optional[frozenset] = None
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_lost = 0

    # ------------------------------------------------------------------
    # Partition injection
    # ------------------------------------------------------------------
    def partition(self, group: Iterable[int]) -> None:
        """Split the network: ``group`` vs everyone else.

        While partitioned, packets are only delivered between nodes on
        the same side.  Models the §3 scenario where clashing sessions
        arise because "a network partition has been resolved recently".
        """
        self._partition = frozenset(int(node) for node in group)

    def heal(self) -> None:
        """Remove the partition; delivery returns to normal."""
        self._partition = None

    @property
    def partitioned(self) -> bool:
        return self._partition is not None

    def listen(self, node: int, callback: DeliveryCallback) -> None:
        """Register a delivery callback for ``node``.

        Several callbacks may listen at one node (multiple applications
        on one host, as with real multicast sockets); each receives
        every delivered packet.
        """
        self._listeners.setdefault(node, []).append(callback)
        self._fanout.clear()

    def unlisten(self, node: int,
                 callback: "DeliveryCallback | None" = None) -> None:
        """Remove ``node``'s callbacks (or just ``callback``)."""
        self._fanout.clear()
        if callback is None:
            self._listeners.pop(node, None)
            return
        callbacks = self._listeners.get(node)
        if callbacks and callback in callbacks:
            callbacks.remove(callback)
            if not callbacks:
                del self._listeners[node]

    def send(self, packet: Packet) -> int:
        """Multicast ``packet``; returns the number of deliveries scheduled.

        The sender itself never receives its own packet (matching
        IP_MULTICAST_LOOP disabled, which is how sdr's cache is modelled:
        the announcer already knows its own sessions).

        Each send draws once per stream: ``net.loss`` gives one double
        per eligible receiver and ``net.jitter`` one per surviving
        receiver, in receiver-map order.  These are the doubles that
        per-receiver ``random()`` and ``uniform(0.0, jitter)`` calls
        would draw, since ``uniform`` is ``low + range * next_double``.
        """
        scheduler = self.scheduler
        packet.sent_at = scheduler.now
        self.packets_sent += 1
        source = packet.source
        fanout_key = (source, packet.ttl)
        receivers = self._fanout.get(fanout_key)
        if receivers is None:
            listeners = self._listeners
            receivers = self._fanout[fanout_key] = [
                (receiver, delay)
                for receiver, delay in self.receiver_map(source, packet.ttl)
                if receiver != source and receiver in listeners
            ]
        partition = self._partition
        if partition is not None:
            side = source in partition
            receivers = [(receiver, delay) for receiver, delay in receivers
                         if (receiver in partition) == side]
        if not receivers:
            return 0
        if self.loss_rate:
            draws = self.streams.get("net.loss").random(len(receivers))
            kept = [pair for pair, draw in zip(receivers, draws.tolist())
                    if draw >= self.loss_rate]
            self.packets_lost += len(receivers) - len(kept)
            receivers = kept
            if not receivers:
                return 0
        if self.jitter:
            jitter = self.jitter
            extras = self.streams.get("net.jitter").random(len(receivers))
            receivers = [(receiver, delay + jitter * extra)
                         for (receiver, delay), extra
                         in zip(receivers, extras.tolist())]
        schedule = scheduler.schedule
        for receiver, delay in receivers:
            # Bound per receiver (a default, not the loop variable).
            def deliver(receiver: int = receiver) -> None:
                callbacks = self._listeners.get(receiver)
                if callbacks:
                    self.hand_over(receiver, packet, callbacks)

            # Fire-and-forget is safe here: the closure looks the
            # receiver's listeners up at *fire* time, so an unlisten()
            # between send and delivery makes this a no-op rather than
            # a stale callback — there is nothing a stored handle would
            # ever need to cancel.
            schedule(delay, deliver)  # simlint: disable=discarded-handle
        return len(receivers)

    def hand_over(self, receiver: int, packet: Packet,
                  callbacks: List[DeliveryCallback]) -> None:
        """Count one delivery and pass ``packet`` to each of
        ``callbacks``, the listeners ``receiver`` has at fire time."""
        self.packets_delivered += 1
        for callback in list(callbacks):
            callback(receiver, packet)

    def __repr__(self) -> str:
        return (
            f"NetworkModel(sent={self.packets_sent}, "
            f"delivered={self.packets_delivered}, lost={self.packets_lost})"
        )
