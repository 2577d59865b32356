"""The announce/listen session cache.

"Session directories use an announce/listen approach to build up a
complete list of these advertised sessions" (§2.1).  The cache holds
every announcement heard, expires entries that stop being refreshed,
and counts each entry's address and TTL into the view the allocator
consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.allocator import OccupancyView
from repro.sap.messages import SapMessage, SapMessageType
from repro.sap.sdp import SessionDescription
from repro.sim.types import Duration, SimTime, SlotIndex, Ttl

#: Default: an entry missing this many seconds of announcements dies.
DEFAULT_TIMEOUT = 3600.0

#: Cache identity of an announcement: (origin, message id hash).
CacheKey = Tuple[int, int]

#: One logical session at one origin: (origin, SDP username, session id).
SessionKey = Tuple[int, str, int]

#: Maps a parsed description to its group's space index (None if the
#: address is outside the space).
AddressOf = Callable[[SessionDescription], Optional[SlotIndex]]

@dataclass
class CacheEntry:
    """One cached announcement.

    Attributes:
        message: the most recent SAP message.
        description: parsed SDP (None if unparseable).
        address_index: group address as a space index, mapped by the
            cache from the directory's ``address_of`` (None when the
            address is outside the directory's space).  The cache
            indexes entries by it, so only the cache assigns it.
        first_heard: when the announcement was first received.
        last_heard: most recent reception.
    """

    message: SapMessage
    description: Optional[SessionDescription]
    address_index: Optional[SlotIndex] = None
    first_heard: SimTime = 0.0
    last_heard: SimTime = 0.0

    @property
    def ttl(self) -> Ttl:
        return self.description.ttl if self.description else 255


class SessionCache:
    """Announcement cache keyed by (origin, message id hash).

    Two indexes sit beside the entries so that per-packet work scales
    with the entries sharing an address or a session, not with the
    cache: address -> keys, and (origin, SDP username, session id) ->
    keys.  Every bucket lists its keys in ``_entries`` insertion
    order, which is the order a full scan would visit them.

    Every entry with a mapped address is also counted, at its address
    and its TTL, in ``view``: the allocator's view of the directory
    that owns the cache, which counts its own sessions there too.  An
    entry is counted when it is inserted and uncounted when it is
    removed, so allocating reads the counts and never visits an entry.

    Args:
        view: the counts to keep; its space must hold every address
            ``address_of`` maps to.
        address_of: maps a new entry's description to its address.
        timeout: seconds without an announcement before an entry dies.
    """

    def __init__(self, view: OccupancyView, address_of: AddressOf,
                 timeout: Duration = DEFAULT_TIMEOUT) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive: {timeout}")
        self.timeout = timeout
        self._view = view
        self._address_of = address_of
        self._entries: Dict[CacheKey, CacheEntry] = {}
        self._by_address: Dict[SlotIndex, List[CacheKey]] = {}
        self._by_session: Dict[SessionKey, List[CacheKey]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def observe(self, message: SapMessage,
                now: SimTime) -> Optional[CacheEntry]:
        """Record a received SAP message.

        Deletions remove the matching entry.  A *modified*
        announcement — same origin node and SDP (username, session id)
        but a higher version — supersedes the stale entry, as sdr's
        cache did; without this, an address change (e.g. a clash
        retreat) would leave the old address looking occupied until
        timeout.  Returns the affected entry (None for deletions and
        unparseable announcements).

        The SDP is parsed once per miss, and ``address_of`` maps the
        entry's address from that parse.  A hit is a refresh of the
        same announcement: it stamps ``last_heard`` and reads nothing.
        """
        key = message.key()
        if message.msg_type is SapMessageType.DELETE:
            self._remove(key)
            return None
        entry = self._entries.get(key)
        if entry is not None:
            entry.last_heard = now
            return entry
        try:
            description = SessionDescription.parse(message.payload)
        except ValueError:
            return None
        self._supersede(message.origin, description)
        entry = CacheEntry(
            message=message,
            description=description,
            address_index=self._address_of(description),
            first_heard=now,
            last_heard=now,
        )
        self._insert(key, entry)
        return entry

    def _insert(self, key: CacheKey, entry: CacheEntry) -> None:
        """Add a new entry, appending its key to both indexes and, if
        it has an address, counting it in the view."""
        self._entries[key] = entry
        if entry.address_index is not None:
            self._by_address.setdefault(entry.address_index, []).append(key)
            self._view.add(entry.address_index, entry.ttl, 1)
        if entry.description is not None:
            self._by_session.setdefault(
                _session_key(key[0], entry.description), []).append(key)

    def _remove(self, key: CacheKey) -> None:
        """Drop an entry, if present, from the cache and both indexes,
        and uncount it from the view."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        if entry.address_index is not None:
            _unlink(self._by_address, entry.address_index, key)
            self._view.add(entry.address_index, entry.ttl, -1)
        if entry.description is not None:
            _unlink(self._by_session,
                    _session_key(key[0], entry.description), key)

    def _supersede(self, origin: int,
                   description: SessionDescription) -> None:
        """Drop older versions of the same logical session."""
        stale = []
        for key in self._by_session.get(_session_key(origin, description),
                                        ()):
            cached = self._entries[key].description
            if cached is not None and cached.version < description.version:
                stale.append(key)
        for key in stale:
            self._remove(key)

    def expire(self, now: SimTime) -> int:
        """Drop entries not refreshed within the timeout; returns count."""
        stale = [key for key, entry in self._entries.items()
                 if now - entry.last_heard > self.timeout]
        for key in stale:
            self._remove(key)
        return len(stale)

    def entries(self) -> List[CacheEntry]:
        return list(self._entries.values())

    def lookup(self, origin: int, msg_id_hash: int) -> Optional[CacheEntry]:
        return self._entries.get((origin, msg_id_hash))

    def entries_for_address(self,
                            address_index: SlotIndex) -> List[CacheEntry]:
        """Cached announcements using a given group address.

        Served from the address index: the cost is the number of
        entries at that address, not the size of the cache.  They come
        in ``_entries`` insertion order, the order of a full scan,
        because callers draw from an RNG once per returned entry.
        Entries without a mapped address are never returned.
        """
        entries = self._entries
        return [entries[key]
                for key in self._by_address.get(address_index, ())]

    def alone_at_address(self, entry: CacheEntry) -> bool:
        """True if no other cached entry uses ``entry``'s address.

        O(1): it reads the length of one address bucket, and at most
        its one key.
        """
        keys = self._by_address.get(entry.address_index, ())
        return not keys or (len(keys) == 1
                            and self._entries[keys[0]] is entry)

    def visible_set(self) -> OccupancyView:
        """The view this cache counts into, live: it answers for every
        mapped entry and for the owning directory's own sessions.

        The directory allocates from the view it owns, and calls no
        method here for it.  This one stays because the benchmark's
        traced run wraps it by name.
        """
        return self._view


def _session_key(origin: int, description: SessionDescription) -> SessionKey:
    return (origin, description.username, description.session_id)


def _unlink(index: Dict, bucket: object, key: CacheKey) -> None:
    """Remove ``key`` from ``index[bucket]``; drop the bucket if empty."""
    keys = index[bucket]
    keys.remove(key)
    if not keys:
        del index[bucket]
