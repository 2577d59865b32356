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
from typing import Any, Callable, Dict, Iterable, Optional, Tuple

from repro.sim.events import EventScheduler
from repro.sim.rng import RandomStreams
from repro.sim.types import Duration, SimTime, Ttl

# A routing oracle: (source, ttl) -> iterable of (receiver, delay_seconds).
ReceiverMap = Callable[[int, int], Iterable[Tuple[int, float]]]
# Per-receiver delivery callback: (receiver, packet) -> None.
DeliveryCallback = Callable[[int, "Packet"], None]


@dataclass(frozen=True)
class LinkModel:
    """Per-link propagation characteristics.

    Attributes:
        delay: one-way propagation delay in seconds.
        loss: probability that a packet crossing the link is dropped.
    """

    delay: Duration
    loss: float = 0.0

    def __post_init__(self) -> None:
        if self.delay < 0:
            raise ValueError(f"negative link delay {self.delay!r}")
        if not 0.0 <= self.loss <= 1.0:
            raise ValueError(f"loss must be a probability, got {self.loss!r}")


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

    Args:
        scheduler: the event scheduler driving the simulation.
        receiver_map: routing oracle returning (receiver, delay) pairs for
            a (source, ttl) send.
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
        #: Optional shadow-state observer (see :mod:`repro.sanitize`).
        #: None in normal operation; one attribute check per send and
        #: delivery when sanitizers are off.
        self._monitor: Optional[Any] = None
        self._partition: Optional[frozenset] = None
        self._detached: set = set()
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

    # ------------------------------------------------------------------
    # Membership churn and loss dynamics
    # ------------------------------------------------------------------
    def detach(self, node: int) -> None:
        """Take ``node`` off the mesh (MANET-style churn).

        While detached, nothing the node sends is delivered anywhere,
        nothing is delivered *to* it (including packets already in
        flight when it detached), and its listeners stay registered
        so :meth:`attach` restores service without re-wiring.
        """
        self._detached.add(int(node))

    def attach(self, node: int) -> None:
        """Return a detached node to the mesh.  Idempotent."""
        self._detached.discard(int(node))

    def detached(self, node: int) -> bool:
        return int(node) in self._detached

    def set_loss_rate(self, loss_rate: float) -> None:
        """Change the end-to-end loss rate mid-run (loss ramps).

        Raises:
            ValueError: if ``loss_rate`` is not a probability.
        """
        if not 0.0 <= loss_rate <= 1.0:
            raise ValueError(
                f"loss_rate must be a probability: {loss_rate}"
            )
        self.loss_rate = loss_rate

    def _same_side(self, a: int, b: int) -> bool:
        if self._partition is None:
            return True
        return (a in self._partition) == (b in self._partition)

    def listen(self, node: int, callback: DeliveryCallback) -> None:
        """Register a delivery callback for ``node``.

        Several callbacks may listen at one node (multiple applications
        on one host, as with real multicast sockets); each receives
        every delivered packet.
        """
        self._listeners.setdefault(node, []).append(callback)

    def unlisten(self, node: int,
                 callback: "DeliveryCallback | None" = None) -> None:
        """Remove ``node``'s callbacks (or just ``callback``)."""
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
        """
        packet.sent_at = self.scheduler.now
        self.packets_sent += 1
        if self._monitor is not None:
            self._monitor.on_send(packet)
        if packet.source in self._detached:
            return 0
        loss_rng = self.streams.get("net.loss")
        jitter_rng = self.streams.get("net.jitter")
        scheduled = 0
        for receiver, delay in self.receiver_map(packet.source, packet.ttl):
            if receiver == packet.source:
                continue
            if receiver not in self._listeners:
                continue
            if receiver in self._detached:
                continue
            if not self._same_side(packet.source, receiver):
                continue
            if self.loss_rate and loss_rng.random() < self.loss_rate:
                self.packets_lost += 1
                continue
            total_delay = delay
            if self.jitter:
                total_delay += jitter_rng.uniform(0.0, self.jitter)
            self._schedule_delivery(receiver, packet, total_delay)
            scheduled += 1
        return scheduled

    def _schedule_delivery(self, receiver: int, packet: Packet,
                           delay: Duration) -> None:
        def deliver() -> None:
            if receiver in self._detached:
                # The receiver churned away while the packet was in
                # flight; it never arrives.
                return
            callbacks = self._listeners.get(receiver)
            if callbacks:
                self.packets_delivered += 1
                if self._monitor is not None:
                    self._monitor.on_deliver(receiver, packet)
                for callback in list(callbacks):
                    callback(receiver, packet)

        # Fire-and-forget is safe here: the closure looks the receiver's
        # listeners up at *fire* time, so an unlisten() between send and
        # delivery makes this a no-op rather than a stale callback —
        # there is nothing a stored handle would ever need to cancel.
        self.scheduler.schedule(  # simlint: disable=discarded-handle
            delay, deliver
        )

    def __repr__(self) -> str:
        return (
            f"NetworkModel(sent={self.packets_sent}, "
            f"delivered={self.packets_delivered}, lost={self.packets_lost})"
        )
