"""The per-site session directory (the paper's sdr).

A :class:`SessionDirectory` runs at one node.  It announces the
sessions created locally, listens for everyone else's announcements,
feeds the resulting view to its address allocator, and runs the
three-phase clash protocol.

"Since the early days of the Mbone, session directories have been used
to perform both session advertisement and multicast address
allocation" (§1) — this class is exactly that dual-purpose machine.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.address_space import MulticastAddressSpace
from repro.core.allocator import Allocator, OccupancyView
from repro.core.partitions import MAX_TTL
from repro.core.session import Session
from repro.sap.announcer import (
    Announcer,
    AnnouncementStrategy,
    FixedIntervalStrategy,
)
from repro.sap.cache import SessionCache
from repro.sap.clash_protocol import ClashHandler, ClashPolicy
from repro.sap.messages import SapMessage
from repro.sap.sdp import MediaStream, SessionDescription
from repro.sim.events import EventHandle, EventScheduler
from repro.sim.network import NetworkModel, Packet
from repro.sim.types import SlotIndex

#: Conventional "group" carried in simulated SAP packets; the network
#: model routes on (source, ttl), so this is informational only.
SAP_GROUP = 0

#: The most addresses a directory allocates over: sdr's dynamic range
#: (§4.1).  A directory keeps an int32 count per address, 256 KB here.
MAX_SPACE_SIZE = 65_536


@dataclass
class OwnSession:
    """A locally created session and its announcement state.

    The session's current announcement is built once and re-sent by
    every transmission: its SAP message, and so the message's cache
    key, and the message's encoded bytes.  All three are stamped with
    the description's ``(version, connection_address)`` and rebuilt on
    the first use after either changes.  In the program
    :meth:`SessionDirectory.relocate` sets the address and
    :meth:`SessionDirectory.retreat` bumps the version; SDP requires a
    version bump for any other change to a description (RFC 4566
    §5.2, ``sess-version``), so the two fields cover every change.
    The stamp, not the mutators, invalidates: a version bumped by hand
    is announced too.  The announcement lives and dies with its own
    session, so its memory grows with the live own sessions.
    """

    session: Session
    description: SessionDescription
    first_announced: float
    expiry_handle: Optional[EventHandle] = None
    announcer: Announcer = field(init=False)
    _stamp: Optional[Tuple[int, str]] = field(
        default=None, init=False, repr=False, compare=False)
    _message: SapMessage = field(init=False, repr=False, compare=False)
    _key: Tuple[int, int] = field(init=False, repr=False, compare=False)
    _wire: bytes = field(init=False, repr=False, compare=False)

    def _current(self) -> SapMessage:
        """The current announcement, rebuilt if its stamp is stale."""
        description = self.description
        stamp = (description.version, description.connection_address)
        if stamp != self._stamp:
            message = SapMessage.announce(self.session.source,
                                          description.format())
            self._message = message
            self._key = message.key()
            self._wire = message.encode()
            self._stamp = stamp
        return self._message

    def message_key(self) -> Tuple[int, int]:
        """The cache key of our current announcement."""
        self._current()
        return self._key

    def wire(self) -> bytes:
        """The current announcement as an encoded SAP packet."""
        self._current()
        return self._wire

    def withdrawal(self) -> bytes:
        """A SAP deletion of the current announcement's payload."""
        message = self._current()
        return SapMessage.delete(message.origin, message.payload).encode()


class SessionDirectory:
    """One site's sdr instance.

    Args:
        node: the node this directory runs at.
        scheduler: simulation event scheduler.
        network: multicast delivery substrate.
        allocator: the address allocation algorithm to use.
        address_space: maps allocator indices to real group addresses;
            at most :data:`MAX_SPACE_SIZE` of them.
        strategy_factory: builds the announcement strategy per session.
        clash_policy: three-phase protocol tunables; defaults applied
            when omitted.
        enable_clash_protocol: set False to disable clash handling.
        username: SDP origin username.
        rng: numpy Generator for timers and jitter.

    Raises:
        ValueError: if the space holds more than
            :data:`MAX_SPACE_SIZE` addresses.
    """

    def __init__(
        self,
        node: int,
        scheduler: EventScheduler,
        network: NetworkModel,
        allocator: Allocator,
        address_space: MulticastAddressSpace,
        strategy_factory: Callable[[], AnnouncementStrategy] = (
            FixedIntervalStrategy
        ),
        clash_policy: Optional[ClashPolicy] = None,
        enable_clash_protocol: bool = True,
        username: str = "user",
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        if address_space.size > MAX_SPACE_SIZE:
            raise ValueError(
                f"a directory counts at most {MAX_SPACE_SIZE} addresses, "
                f"not {address_space.size}")
        self.node = node
        self.scheduler = scheduler
        self.network = network
        self.allocator = allocator
        self.address_space = address_space
        self.strategy_factory = strategy_factory
        self.username = username
        #: What this site knows to be in use: the cache counts its
        #: mapped entries here, and the own-session index its sessions.
        self._view = OccupancyView(
            np.zeros(address_space.size, dtype=np.int32),
            np.zeros(MAX_TTL + 1, dtype=np.int32))
        self.cache = SessionCache(self._view, self._address_of)
        self.rng = rng if rng is not None else np.random.default_rng(node)
        self._own: Dict[Tuple[int, int], OwnSession] = {}
        #: Own sessions by address.  Each bucket keeps ``_own`` order,
        #: which is SDP session-id order: clashing own sessions each
        #: may retreat, drawing from the allocator's RNG, in that order.
        self._own_by_address: Dict[SlotIndex, List[OwnSession]] = {}
        self._session_ids = itertools.count(1)
        self.clash_handler: Optional[ClashHandler] = None
        if enable_clash_protocol:
            policy = clash_policy if clash_policy is not None else (
                ClashPolicy()
            )
            self.clash_handler = ClashHandler(self, policy, self.rng)
        self.address_changes = 0
        self.announcements_received = 0
        network.listen(node, self._on_packet)

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def create_session(self, name: str, ttl: int,
                       media: Optional[Sequence[MediaStream]] = None,
                       info: Optional[str] = None,
                       lifetime: Optional[float] = None,
                       start: int = 0, stop: int = 0) -> Session:
        """Allocate an address, build the description, start announcing.

        Args:
            name: session name (the SDP ``s=`` line).
            ttl: scope TTL.
            media: media streams (default: one audio stream).
            info: optional free-text description.
            lifetime: if set, the session is withdrawn automatically
                after this many simulated seconds.
            start: SDP ``t=`` start time (0 = already started).
            stop: SDP ``t=`` stop time (0 = unbounded).

        Returns the created :class:`~repro.core.session.Session`.
        """
        visible = self._allocation_view()
        result = self.allocator.allocate(ttl, visible)
        session = Session(
            address=result.address,
            ttl=ttl,
            source=self.node,
            created_at=self.scheduler.now,
            lifetime=lifetime,
        )
        description = SessionDescription(
            name=name,
            username=self.username,
            session_id=int(next(self._session_ids)),
            version=1,
            origin_address=f"10.0.{self.node // 256}.{self.node % 256}",
            connection_address=self.address_space.index_to_ip(
                session.address
            ),
            ttl=ttl,
            info=info,
            start=start,
            stop=stop,
            media=list(media) if media else [MediaStream("audio", 49170)],
        )
        session.description = description
        own = OwnSession(
            session=session,
            description=description,
            first_announced=self.scheduler.now,
        )
        own.announcer = self._make_announcer(own)
        self._own[(self.node, description.session_id)] = own
        self._index_own(own)
        own.announcer.start()
        if lifetime is not None:
            own.expiry_handle = self.scheduler.schedule(
                lifetime, lambda: self._expire_own(session)
            )
        return session

    def _expire_own(self, session: Session) -> None:
        """Withdraw an expired session (no-op if already withdrawn)."""
        try:
            self.delete_session(session)
        except KeyError:
            pass

    def delete_session(self, session: Session) -> None:
        """Withdraw a session: stop announcing, send a SAP deletion.

        Raises:
            KeyError: if the session was not created here.
        """
        own = self._find_own(session)
        own.announcer.stop()
        if own.expiry_handle is not None:
            own.expiry_handle.cancel()
            own.expiry_handle = None
        self._multicast(own.withdrawal(), session.ttl)
        del self._own[(self.node, own.description.session_id)]
        self._unindex_own(own)

    def own_sessions(self) -> List[OwnSession]:
        """Sessions created at this site, with announcement state."""
        return list(self._own.values())

    def own_sessions_at(self, address: SlotIndex) -> List[OwnSession]:
        """This site's sessions at ``address``, in creation order.

        Served from the own-session index, so the cost is the number
        of own sessions at that address, not the number this site
        holds.  The order is that of :meth:`own_sessions` (creation,
        i.e. SDP session-id order), because the clash handler draws
        from the allocator's RNG once per retreating session in it.
        Returns a copy.
        """
        return list(self._own_by_address.get(address, ()))

    def has_own_sessions_at(self, address: SlotIndex) -> bool:
        """True if this site has a session at ``address``; O(1), and
        builds no list."""
        return address in self._own_by_address

    def relocate(self, own: OwnSession, address: SlotIndex) -> None:
        """Move an own session to ``address``.

        Every change of an own session's address goes through here:
        it sets the session's address and its SDP connection address
        together and moves the session to its new index bucket.  It
        neither bumps the SDP version nor announces; callers do.  The
        new address stales the session's cached announcement, which
        is rebuilt on its next use.  A session this site has withdrawn
        gets its new address but joins no bucket, so it cannot hold
        the address.
        """
        self._unindex_own(own)
        own.session.address = address
        own.description.connection_address = (
            self.address_space.index_to_ip(address)
        )
        if self._own.get((self.node, own.description.session_id)) is own:
            self._index_own(own)

    def owns(self, message_key: Tuple[int, int]) -> bool:
        """True if a cache key corresponds to one of our sessions.

        Our keys always carry this node as origin, so a foreign key is
        answered without reading any own session.
        """
        if message_key[0] != self.node:
            return False
        return any(own.message_key() == message_key
                   for own in self._own.values())

    def known_sessions(self) -> List[SessionDescription]:
        """Descriptions visible at this site (cache + our own)."""
        out = [entry.description for entry in self.cache.entries()
               if entry.description is not None]
        out.extend(own.description for own in self._own.values())
        return out

    def expire_cache(self) -> int:
        """Expire stale cache entries; returns how many were dropped."""
        return self.cache.expire(self.scheduler.now)

    # ------------------------------------------------------------------
    # Clash-protocol callbacks (invoked by the ClashHandler)
    # ------------------------------------------------------------------
    def defend(self, own: OwnSession) -> None:
        """Phase 1: immediately re-announce an established session."""
        own.announcer.announce_now()

    def retreat(self, own: OwnSession) -> None:
        """Phase 2: move a just-announced session to a new address."""
        visible = self._allocation_view()
        result = self.allocator.allocate(own.session.ttl, visible)
        self.relocate(own, result.address)
        own.description.version += 1
        self.address_changes += 1
        own.announcer.announce_now()

    def proxy_defend(self, entry) -> None:
        """Phase 3: re-announce a cached session for its originator.

        A cache entry holds the ANNOUNCE it was created from, so that
        message is re-sent as it is.
        """
        self._multicast(entry.message.encode(), entry.ttl)

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _allocation_view(self) -> OccupancyView:
        """Cache contents plus our own live sessions, as live counts."""
        return self._view

    def _index_own(self, own: OwnSession) -> None:
        """Put ``own`` in its address bucket at its session-id place,
        and count it in the view."""
        address = own.session.address
        bucket = self._own_by_address.setdefault(address, [])
        session_id = own.description.session_id
        place = len(bucket)
        while place and bucket[place - 1].description.session_id > session_id:
            place -= 1
        bucket.insert(place, own)
        self._view.add(address, own.session.ttl, 1)

    def _unindex_own(self, own: OwnSession) -> None:
        """Take ``own`` out of its address bucket and uncount it, if it
        is there."""
        address = own.session.address
        bucket = self._own_by_address.get(address, [])
        for place, member in enumerate(bucket):
            if member is own:
                del bucket[place]
                if not bucket:
                    del self._own_by_address[address]
                self._view.add(address, own.session.ttl, -1)
                return

    def _make_announcer(self, own: OwnSession) -> Announcer:
        def send() -> None:
            self._multicast(own.wire(), own.session.ttl)

        return Announcer(
            scheduler=self.scheduler,
            send=send,
            strategy=self.strategy_factory(),
            rng=self.rng,
        )

    def _multicast(self, payload: bytes, ttl: int) -> None:
        """Send one encoded SAP packet: the one send point of a site.

        Every send builds a new :class:`Packet`, because the network
        stamps ``sent_at`` on it.
        """
        self.network.send(Packet(source=self.node, group=SAP_GROUP,
                                 ttl=ttl, payload=payload))

    def _on_packet(self, receiver: int, packet: Packet) -> None:
        try:
            message = SapMessage.decode(packet.payload)
        except ValueError:
            return
        if self._drop_self_origin(message):
            return
        self.announcements_received += 1
        entry = self.cache.observe(message, self.scheduler.now)
        if entry is not None and self.clash_handler is not None:
            self.clash_handler.on_announcement(entry)

    def _drop_self_origin(self, message: SapMessage) -> bool:
        """Drop our own announcements echoed back to us.

        A third-party proxy defence (§3 phase 3) re-sends our message
        verbatim.  Real sdr ignores these; caching them would let this
        site later proxy-defend its *own withdrawn* session,
        resurrecting a session it knows is dead.
        """
        return message.origin == self.node

    def _address_of(self, description: SessionDescription
                    ) -> Optional[int]:
        """A description's group address as a space index, or None."""
        try:
            return self.address_space.ip_to_index(
                description.connection_address
            )
        except ValueError:
            return None

    def _find_own(self, session: Session) -> OwnSession:
        for own in self._own.values():
            if own.session is session:
                return own
        raise KeyError(f"session {session.key()} was not created here")

    def __repr__(self) -> str:
        return (f"SessionDirectory(node={self.node}, "
                f"own={len(self._own)}, cached={len(self.cache)})")
