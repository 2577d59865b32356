"""ProtocolHarness — one explorable world around the real protocol.

The harness instantiates the *production* classes
(:class:`~repro.sap.directory.SessionDirectory`,
:class:`~repro.sap.clash_protocol.ClashHandler`, the event scheduler)
and replaces only the two sources of nondeterminism with explorer
choice points:

* :class:`ModelNetwork` holds every multicast in flight instead of
  scheduling deliveries — the explorer decides per message whether and
  when it is delivered or lost;
* :class:`ControlledScheduler` exposes ``fire(handle)`` so the
  explorer picks which pending timer fires next (time-abstracted: the
  clock jumps to ``max(now, when)``, a sound over-approximation of
  "this timer fired before anything else happened").

**Snapshot/restore contract.**  Scheduled callbacks are closures over
live objects, so a ``deepcopy`` of the heap would silently call back
into pre-copy state.  Instead of copying, a :class:`Snapshot` is the
pair ``(trace, fingerprint)`` and *restore is deterministic replay*:
rebuild the world from ``(scenario, seed, mutation)`` and re-execute
the trace.  Every identifier appearing in a trace (message and timer
sequence numbers) is assigned deterministically, so replay is exact;
:meth:`ProtocolHarness.restore` asserts the replayed fingerprint
matches the snapshot.

The per-state invariant probes are the PR 2 runtime sanitizers,
attached unchanged (a :class:`~repro.sanitize.context.SanitizerContext`
per world), plus two model-checker-only invariants:

* **MC311 established-displaced** — checked after every action;
* **MC312 stable-double-claim** — checked at quiescent states of
  loss-free traces (a lossy trace may legitimately quiesce with a
  latent clash that the next retransmission, outside the bounded
  horizon, would repair; those are counted, not flagged).

Mutations (test-only re-introductions of historical bugs) are
selected by name: ``ghost-resurrection`` disables the PR 2 self-origin
echo guard, ``defend-off-by-one`` flips the phase-1 established
predicate.
"""

from __future__ import annotations

import hashlib
import zlib
from dataclasses import dataclass
from heapq import heapify
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.address_space import MulticastAddressSpace
from repro.core.allocator import AllocationResult, AllocationView, Allocator
from repro.sap.announcer import FixedIntervalStrategy
from repro.sap.clash_protocol import ClashHandler, ClashPolicy
from repro.sap.directory import SessionDirectory
from repro.sap.messages import SapMessage
from repro.sim.events import EventHandle, EventScheduler
from repro.sim.network import Packet
from repro.sanitize.context import SanitizerContext

#: Action kinds a trace is made of.
DELIVER, DROP, FIRE = "deliver", "drop", "fire"

Action = Tuple[str, int]


@dataclass(frozen=True)
class Snapshot:
    """A restorable point: the trace that reaches it and its hash."""

    trace: Tuple[Action, ...]
    fingerprint: str


@dataclass(frozen=True)
class McViolation:
    """One invariant broken during exploration (lint-style record)."""

    code: str
    rule: str
    message: str
    time: float


class ControlledScheduler(EventScheduler):
    """An event scheduler whose firing order the explorer controls.

    ``step()``/``run()`` remain available (scenario setup uses the
    clock only); exploration uses :meth:`fire` exclusively.
    """

    def fire(self, handle: EventHandle) -> None:
        """Fire one pending handle now, advancing the clock to its
        due time if that lies in the future (time abstraction: firing
        order is explorer choice, the clock never runs backwards).

        The handle's heap entry goes with it, so ``run``, ``step`` and
        ``pending_count`` never meet a fired event.  The explorer's
        heaps hold a few entries, so re-heapifying costs nothing.
        """
        if not handle.pending:
            raise ValueError(f"cannot fire non-pending handle {handle!r}")
        self._heap.remove((handle.when, handle.seq, handle))
        heapify(self._heap)
        if handle.when > self.now:
            self.clock.advance_to(handle.when)
        callback, handle.callback = handle.callback, None
        callback()
        self._events_run += 1

    def handle_by_seq(self, seq: int) -> EventHandle:
        for __, __, handle in self._heap:
            if handle.seq == seq and handle.pending:
                return handle
        raise KeyError(f"no pending handle with seq {seq}")


@dataclass
class InflightMessage:
    """One multicast copy awaiting an explorer deliver/drop decision."""

    seq: int
    receiver: int
    packet: Packet

    def content_key(self) -> Tuple[int, int, int, int]:
        """Identity for state hashing: *what* is in flight to *whom*,
        independent of the sequence numbers a particular interleaving
        assigned."""
        return (self.receiver, self.packet.source, self.packet.ttl,
                zlib.crc32(bytes(self.packet.payload)))


class ModelNetwork:
    """A network whose delivery schedule is the explorer's to choose.

    Duck-types the :class:`~repro.sim.network.NetworkModel` surface
    the directory uses (``listen``/``send``): a send parks one
    :class:`InflightMessage` per potential receiver; nothing is
    delivered until :meth:`deliver` is called.
    """

    def __init__(self, scheduler: EventScheduler) -> None:
        self.scheduler = scheduler
        self._listeners: Dict[int, list] = {}
        self._seq = 0
        self.inflight: Dict[int, InflightMessage] = {}
        self.packets_sent = 0
        self.packets_delivered = 0
        self.packets_lost = 0

    def listen(self, node: int, callback) -> None:
        self._listeners.setdefault(node, []).append(callback)

    def send(self, packet: Packet) -> int:
        packet.sent_at = self.scheduler.now
        self.packets_sent += 1
        parked = 0
        for receiver in sorted(self._listeners):
            if receiver == packet.source:
                continue
            self.inflight[self._seq] = InflightMessage(
                seq=self._seq, receiver=receiver, packet=packet,
            )
            self._seq += 1
            parked += 1
        return parked

    def deliver(self, seq: int) -> InflightMessage:
        """Deliver one in-flight message at the current instant."""
        message = self.inflight.pop(seq)
        self.packets_delivered += 1
        for callback in list(self._listeners.get(message.receiver, ())):
            callback(message.receiver, message.packet)
        return message

    def drop(self, seq: int) -> InflightMessage:
        """Lose one in-flight message."""
        message = self.inflight.pop(seq)
        self.packets_lost += 1
        return message

    def void_all(self) -> int:
        """Discard everything in flight (scenario setup plumbing, not
        modelled loss — does not count against any loss budget)."""
        count = len(self.inflight)
        self.inflight.clear()
        return count

    def deliver_only(self, receivers: Tuple[int, ...]) -> int:
        """Setup plumbing: deliver to ``receivers``, void the rest."""
        count = 0
        for seq in sorted(self.inflight):
            message = self.inflight[seq]
            if message.receiver in receivers:
                self.deliver(seq)
                count += 1
            else:
                del self.inflight[seq]
        return count


class FirstFitAllocator(Allocator):
    """Deterministic lowest-free-address allocator.

    Exploration wants allocation itself deterministic so that every
    branch point in the state space is an *ordering* choice, not an
    RNG draw; first-fit also maximises contention, which is the point
    of a clash-protocol model check.
    """

    name = "first-fit"

    def allocate(self, ttl: int,
                 visible: AllocationView) -> AllocationResult:
        self._check_ttl(ttl)
        free = visible.free_offsets(0, self.space_size)
        if len(free):
            return AllocationResult(int(free[0]), informed=True,
                                    forced=False)
        self.forced_allocations += 1
        address = int(self.rng.integers(0, self.space_size))
        return AllocationResult(address, informed=False, forced=True)


class GhostResurrectionDirectory(SessionDirectory):
    """Mutation ``ghost-resurrection``: re-introduces the PR 2 bug —
    self-origin SAP echoes are cached again, so a site can later
    proxy-defend its own withdrawn session."""

    def _drop_self_origin(self, message: SapMessage) -> bool:
        return False


class OffByOneClashHandler(ClashHandler):
    """Mutation ``defend-off-by-one``: the phase-1 window predicate is
    inverted at the boundary — established sessions are treated as
    newcomers and vice versa, so a newcomer stands its ground."""

    def _is_established(self, age: float) -> bool:
        return age < self.policy.recent_window


MUTATIONS = ("ghost-resurrection", "defend-off-by-one")


class ProtocolHarness:
    """One explorable world: directories, network, scheduler, probes.

    Args:
        scenario: a :class:`repro.modelcheck.scenarios.Scenario`.
        seed: world seed (per-directory RNGs derive from it).
        mutation: None, or one of :data:`MUTATIONS`.
    """

    def __init__(self, scenario, seed: int = 0,
                 mutation: Optional[str] = None) -> None:
        if mutation is not None and mutation not in MUTATIONS:
            raise ValueError(f"unknown mutation {mutation!r}; "
                             f"known: {list(MUTATIONS)}")
        self.scenario = scenario
        self.seed = seed
        self.mutation = mutation
        self.scheduler = ControlledScheduler()
        self.network = ModelNetwork(self.scheduler)
        self.context = SanitizerContext(
            scenario=f"modelcheck:{scenario.name}"
        )
        self.context.attach_scheduler(self.scheduler)
        self.context.attach_network(self.network)
        address_space = MulticastAddressSpace.abstract(scenario.space_size)
        directory_cls = (GhostResurrectionDirectory
                         if mutation == "ghost-resurrection"
                         else SessionDirectory)
        handler_cls = (OffByOneClashHandler
                       if mutation == "defend-off-by-one"
                       else ClashHandler)
        self.directories: List[SessionDirectory] = []
        for node in range(scenario.nodes):
            rng = np.random.default_rng(seed * 8191 + node)
            directory = directory_cls(
                node=node,
                scheduler=self.scheduler,
                network=self.network,
                allocator=FirstFitAllocator(scenario.space_size, rng=rng),
                address_space=address_space,
                strategy_factory=lambda: FixedIntervalStrategy(
                    scenario.announce_interval
                ),
                enable_clash_protocol=False,
                rng=rng,
            )
            if node in scenario.protocol_nodes:
                directory.clash_handler = handler_cls(
                    directory, ClashPolicy(), directory.rng
                )
            self.context.watch_directory(directory)
            self.directories.append(directory)
        self.trace: List[Action] = []
        self.trace_labels: List[str] = []
        self.violations: List[McViolation] = []
        self.losses_used = 0
        self._violation_mark = 0
        scenario.setup(self)
        self._drain_sanitizer()
        if self.violations:
            raise RuntimeError(
                f"scenario {scenario.name!r} setup is not clean: "
                f"{self.violations}"
            )
        self._established = self._own_claims(established_only=True)

    # ------------------------------------------------------------------
    # Scenario-setup helpers
    # ------------------------------------------------------------------
    def create(self, node: int, name: str, ttl: int = 15,
               lifetime: Optional[float] = None):
        """Create a session at ``node`` (announces synchronously)."""
        return self.directories[node].create_session(
            name, ttl=ttl, lifetime=lifetime
        )

    def advance(self, seconds: float) -> None:
        """Move the clock forward without firing anything."""
        self.scheduler.clock.advance_to(self.scheduler.now + seconds)

    def void_inflight(self) -> int:
        """Discard everything in flight (pre-history plumbing)."""
        return self.network.void_all()

    def deliver_inflight(self, *receivers: int) -> int:
        """Deliver in-flight messages to ``receivers``, void the rest."""
        return self.network.deliver_only(tuple(receivers))

    # ------------------------------------------------------------------
    # Exploration surface
    # ------------------------------------------------------------------
    def enabled_actions(self) -> List[Action]:
        """Every action the explorer may take from this state.

        Deliveries (one per in-flight message), losses (same, while
        the trace's loss budget lasts), and timer firings (pending
        handles due within the scenario horizon — the horizon keeps
        unbounded periodic re-announcement chains out of the space).

        The channel has bounded delay: a timer firing that would move
        the clock past ``sent_at + delay_bound`` of an undelivered
        message is disabled until that message is delivered or
        dropped, so delivered messages arrive at most ``delay_bound``
        late.  (An unbounded-delay channel would let the explorer
        stall a newcomer's announcement past the recent window, making
        both claimants established — the partition-heal case the
        protocol deliberately leaves to a human, §3.)
        """
        actions: List[Action] = []
        for seq in sorted(self.network.inflight):
            actions.append((DELIVER, seq))
        if self.losses_used < self.scenario.loss_budget:
            for seq in sorted(self.network.inflight):
                actions.append((DROP, seq))
        deadline = None
        if self.network.inflight:
            deadline = min(
                message.packet.sent_at
                for message in self.network.inflight.values()
            ) + self.scenario.delay_bound
        for handle in self.scheduler.pending_handles():
            if handle.when > self.scenario.horizon:
                continue
            fires_at = max(self.scheduler.now, handle.when)
            if deadline is not None and fires_at > deadline:
                continue
            actions.append((FIRE, handle.seq))
        return actions

    def execute(self, action: Action) -> None:
        """Apply one action, then run the per-state invariant probes."""
        kind, seq = action
        if kind == DELIVER:
            message = self.network.deliver(seq)
            self.trace_labels.append(self._message_label("deliver",
                                                         message))
        elif kind == DROP:
            message = self.network.drop(seq)
            self.losses_used += 1
            self.trace_labels.append(self._message_label("drop", message))
        elif kind == FIRE:
            handle = self.scheduler.handle_by_seq(seq)
            label = (f"fire timer t={handle.when:.2f} "
                     f"[{_callback_name(handle)}]")
            self.scheduler.fire(handle)
            self.trace_labels.append(label)
        else:
            raise ValueError(f"unknown action kind {kind!r}")
        self.trace.append(action)
        self._drain_sanitizer()
        self._check_established()

    def quiescent(self) -> bool:
        """Nothing in flight: every sent message has been delivered or
        lost, so all reachable information has propagated."""
        return not self.network.inflight

    def check_quiescent_state(self) -> None:
        """MC312 + cache convergence, called by the explorer at
        quiescent states of loss-free traces."""
        for address, claimants in sorted(self.double_claims().items()):
            owners = ", ".join(f"node {node} session {sid}"
                               for node, sid in claimants)
            self.violations.append(McViolation(
                code="MC312", rule="stable-double-claim",
                message=(f"loss-free trace quiesced with address "
                         f"{address} claimed by {owners}"),
                time=self.scheduler.now,
            ))
        self.context.check_convergence()
        self._drain_sanitizer()

    def double_claims(self) -> Dict[int, List[Tuple[int, int]]]:
        """Addresses claimed by more than one live own-session.

        Only protocol-running nodes count: the stability guarantee is
        among participants, and a legacy announcer that never hears a
        defence it would act on cannot be expected to move.
        """
        claims: Dict[int, List[Tuple[int, int]]] = {}
        participants = set(self.scenario.protocol_nodes)
        for key, address in sorted(self._own_claims().items()):
            if key[0] in participants:
                claims.setdefault(address, []).append(key)
        return {address: keys for address, keys in claims.items()
                if len(keys) > 1}

    def snapshot(self) -> Snapshot:
        return Snapshot(trace=tuple(self.trace),
                        fingerprint=self.fingerprint())

    @classmethod
    def restore(cls, scenario, snapshot: Snapshot, seed: int = 0,
                mutation: Optional[str] = None) -> "ProtocolHarness":
        """Rebuild the world and replay the snapshot's trace.

        Raises:
            RuntimeError: if the replayed state hash diverges from the
                snapshot (the replay-determinism contract is broken).
        """
        harness = cls(scenario, seed=seed, mutation=mutation)
        for action in snapshot.trace:
            harness.execute(action)
        replayed = harness.fingerprint()
        if replayed != snapshot.fingerprint:
            raise RuntimeError(
                f"replay diverged: snapshot {snapshot.fingerprint} "
                f"!= replayed {replayed}"
            )
        return harness

    # ------------------------------------------------------------------
    # State hashing
    # ------------------------------------------------------------------
    def fingerprint(self) -> str:
        """A content hash of everything behaviour depends on.

        Sequence numbers are deliberately excluded (two interleavings
        reaching the same protocol state assign different seqs);
        in-flight messages and timers are hashed by content identity.
        RNG states are included: two states that would draw different
        jitter are different states.
        """
        parts: List[object] = [self.scheduler.now, self.losses_used]
        for directory in self.directories:
            own = []
            for session in sorted(
                directory.own_sessions(),
                key=lambda item: item.description.session_id,
            ):
                own.append((
                    session.description.session_id,
                    session.session.address,
                    session.description.version,
                    session.first_announced,
                    session.announcer.running,
                ))
            cache = []
            for entry in sorted(directory.cache.entries(),
                                key=lambda item: item.message.key()):
                cache.append((
                    entry.message.key(),
                    entry.address_index,
                    entry.description.version
                    if entry.description is not None else None,
                    entry.first_heard,
                    entry.last_heard,
                ))
            handler = directory.clash_handler
            pending = sorted(
                (key, item.old_last_heard)
                for key, item in handler._pending.items()
            ) if handler is not None else []
            # _last_defence keys embed Session.session_id, which comes
            # from a process-global counter and so differs between a
            # run and its replay.  Canonicalise through the
            # directory-local description id; entries for withdrawn
            # sessions are behaviourally inert (their global id is
            # never queried again) and are excluded.
            id_map = {
                own.session.session_id: own.description.session_id
                for own in directory.own_sessions()
            }
            defences = sorted(
                ((id_map[sid], entry_key), last)
                for (sid, entry_key), last in handler._last_defence.items()
                if sid in id_map
            ) if handler is not None else []
            rng_digest = hashlib.sha256(
                repr(directory.rng.bit_generator.state).encode("utf-8")
            ).hexdigest()
            parts.append((directory.node, tuple(own), tuple(cache),
                          tuple(pending), tuple(defences), rng_digest))
        parts.append(tuple(sorted(
            message.content_key()
            for message in self.network.inflight.values()
        )))
        timers = []
        for handle in self.scheduler.pending_handles():
            timers.append((handle.when, _callback_name(handle)))
        parts.append(tuple(timers))
        return hashlib.sha256(repr(parts).encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Invariants
    # ------------------------------------------------------------------
    def _own_claims(self, established_only: bool = False
                    ) -> Dict[Tuple[int, int], int]:
        claims: Dict[Tuple[int, int], int] = {}
        now = self.scheduler.now
        for directory in self.directories:
            handler = directory.clash_handler
            window = (handler.policy.recent_window
                      if handler is not None
                      else ClashPolicy().recent_window)
            for own in directory.own_sessions():
                if established_only and \
                        now - own.first_announced <= window:
                    continue
                key = (directory.node, own.description.session_id)
                claims[key] = own.session.address
        return claims

    def _check_established(self) -> None:
        """MC311: an established session keeps its address until its
        owner withdraws it (withdrawal removes it from the watch)."""
        current = self._own_claims()
        for key in sorted(self._established):
            address = self._established[key]
            if key not in current:
                del self._established[key]  # legitimately withdrawn
                continue
            if current[key] != address:
                node, sid = key
                self.violations.append(McViolation(
                    code="MC311", rule="established-displaced",
                    message=(f"established session {sid} at node "
                             f"{node} was displaced from address "
                             f"{address} to {current[key]} by a "
                             f"newcomer"),
                    time=self.scheduler.now,
                ))
                self._established[key] = current[key]

    def _drain_sanitizer(self) -> None:
        fresh = self.context.violations[self._violation_mark:]
        self._violation_mark = len(self.context.violations)
        for violation in fresh:
            self.violations.append(McViolation(
                code=violation.code, rule=violation.rule,
                message=violation.message, time=violation.time,
            ))

    # ------------------------------------------------------------------
    def _message_label(self, verb: str,
                       message: InflightMessage) -> str:
        packet = message.packet
        try:
            sap = SapMessage.decode(bytes(packet.payload))
            what = (f"{sap.msg_type.name} origin={sap.origin} "
                    f"hash={sap.msg_id_hash}")
        except (ValueError, TypeError):
            what = "opaque payload"
        return (f"{verb} {what} from node {packet.source} "
                f"-> node {message.receiver}")

    def __repr__(self) -> str:
        return (f"ProtocolHarness({self.scenario.name!r}, "
                f"depth={len(self.trace)}, "
                f"inflight={len(self.network.inflight)}, "
                f"violations={len(self.violations)})")


def _callback_name(handle: EventHandle) -> str:
    """A pending timer's qualname, read through a ``__wrapped__``."""
    callback = getattr(handle.callback, "__wrapped__", handle.callback)
    return getattr(callback, "__qualname__", repr(callback))
