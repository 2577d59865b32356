"""The announce/listen session cache.

"Session directories use an announce/listen approach to build up a
complete list of these advertised sessions" (§2.1).  The cache holds
every announcement heard, expires entries that stop being refreshed,
and exposes the (address, ttl) view the allocator consumes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Hashable, List, Optional, Tuple

import numpy as np

from repro.core.allocator import VisibleSet
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

#: Rows allocated for the (address, ttl) columns on the first row;
#: they double when full.
_INITIAL_ROWS = 16

#: The columns before their first row (zero-length, so never written).
_NO_ROWS = np.empty(0, dtype=np.int64)


class RowColumns:
    """(address, ttl) pairs in two numpy columns, one row per key.

    Row order is unspecified: removing a row moves the last row into
    its place.  The columns are allocated on the first row, so an
    owner that never adds one pays nothing for them.
    """

    def __init__(self) -> None:
        self._row_of: Dict[Hashable, int] = {}
        self._row_keys: List[Hashable] = []
        self._addresses = _NO_ROWS
        self._ttls = _NO_ROWS

    def __len__(self) -> int:
        return len(self._row_keys)

    def add(self, key: Hashable, address: SlotIndex, ttl: Ttl) -> None:
        """Append ``key``'s (address, ttl) row."""
        row = len(self._row_keys)
        if row == len(self._addresses):
            grow = np.empty(max(row, _INITIAL_ROWS), dtype=np.int64)
            self._addresses = np.concatenate((self._addresses, grow))
            self._ttls = np.concatenate((self._ttls, grow))
        self._addresses[row] = address
        self._ttls[row] = ttl
        self._row_of[key] = row
        self._row_keys.append(key)

    def discard(self, key: Hashable) -> None:
        """Remove ``key``'s row, if it has one; the last row fills the
        hole."""
        row = self._row_of.pop(key, None)
        if row is None:
            return
        last_key = self._row_keys.pop()
        if last_key == key:
            return
        last = len(self._row_keys)
        self._addresses[row] = self._addresses[last]
        self._ttls[row] = self._ttls[last]
        self._row_keys[row] = last_key
        self._row_of[last_key] = row

    def columns(self) -> Tuple[np.ndarray, np.ndarray]:
        """Views of the filled rows: (addresses, ttls)."""
        rows = len(self._row_keys)
        return self._addresses[:rows], self._ttls[:rows]


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
        times_heard: number of receptions.
    """

    message: SapMessage
    description: Optional[SessionDescription]
    address_index: Optional[SlotIndex] = None
    first_heard: SimTime = 0.0
    last_heard: SimTime = 0.0
    times_heard: int = 1

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

    The mapped entries' (address, ttl) pairs also sit in two numpy
    columns, one row per entry, so the allocator's view is a copy of
    two arrays.  Row order is unspecified: removing a row moves the
    last row into its place.
    """

    def __init__(self, timeout: Duration = DEFAULT_TIMEOUT) -> None:
        if timeout <= 0:
            raise ValueError(f"timeout must be positive: {timeout}")
        self.timeout = timeout
        self._entries: Dict[CacheKey, CacheEntry] = {}
        self._by_address: Dict[SlotIndex, List[CacheKey]] = {}
        self._by_session: Dict[SessionKey, List[CacheKey]] = {}
        self._rows = RowColumns()

    def __len__(self) -> int:
        return len(self._entries)

    def observe(self, message: SapMessage, now: SimTime,
                address_of: Optional[AddressOf] = None
                ) -> Optional[CacheEntry]:
        """Record a received SAP message.

        Deletions remove the matching entry.  A *modified*
        announcement — same origin node and SDP (username, session id)
        but a higher version — supersedes the stale entry, as sdr's
        cache did; without this, an address change (e.g. a clash
        retreat) would leave the old address looking occupied until
        timeout.  Returns the affected entry (None for deletions and
        unparseable announcements).

        The SDP is parsed once per miss, and ``address_of`` maps the
        entry's address from that parse.  A hit parses nothing,
        except when its entry still has no address: then the new
        payload is parsed and mapped, as a hash-colliding announcement
        may carry one.
        """
        key = message.key()
        if message.msg_type is SapMessageType.DELETE:
            self._remove(key)
            return None
        entry = self._entries.get(key)
        if entry is not None:
            entry.last_heard = now
            entry.times_heard += 1
            if entry.address_index is None and address_of is not None:
                self._late_fill(key, entry, message.payload, address_of)
            return entry
        try:
            description = SessionDescription.parse(message.payload)
        except ValueError:
            return None
        self._supersede(message.origin, description)
        entry = CacheEntry(
            message=message,
            description=description,
            address_index=(None if address_of is None
                           else address_of(description)),
            first_heard=now,
            last_heard=now,
        )
        self._insert(key, entry)
        return entry

    def _late_fill(self, key: CacheKey, entry: CacheEntry, payload: str,
                   address_of: AddressOf) -> None:
        """Map the address of an entry cached without one.

        The key joins its address bucket at its ``_entries`` position,
        not at the end.  That costs a scan of the cache, at most once
        per entry: an entry with an address is never filled again.
        """
        try:
            address = address_of(SessionDescription.parse(payload))
        except ValueError:
            return
        if address is None:
            return
        entry.address_index = address
        members = set(self._by_address.get(address, ()))
        members.add(key)
        self._by_address[address] = [k for k in self._entries
                                     if k in members]
        self._rows.add(key, address, entry.ttl)

    def _insert(self, key: CacheKey, entry: CacheEntry) -> None:
        """Add a new entry, appending its key to both indexes and, if
        it has an address, its (address, ttl) row to the columns."""
        self._entries[key] = entry
        if entry.address_index is not None:
            self._by_address.setdefault(entry.address_index, []).append(key)
            self._rows.add(key, entry.address_index, entry.ttl)
        if entry.description is not None:
            self._by_session.setdefault(
                _session_key(key[0], entry.description), []).append(key)

    def _remove(self, key: CacheKey) -> None:
        """Drop an entry, if present, from the cache, both indexes and
        the columns."""
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        if entry.address_index is not None:
            _unlink(self._by_address, entry.address_index, key)
            self._rows.discard(key)
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

    def visible_set(self) -> VisibleSet:
        """The allocator's view: (address, ttl) of cached sessions.

        An unordered multiset: one pair per entry with a mapped
        address, in no particular order, which every allocator
        tolerates because it only counts or deduplicates the pairs.
        Entries without a mapped address are not in it.  The result
        copies the cache's two columns; no entry is visited.
        """
        addresses, ttls = self._rows.columns()
        return VisibleSet(addresses.copy(), ttls.copy())


def _session_key(origin: int, description: SessionDescription) -> SessionKey:
    return (origin, description.username, description.session_id)


def _unlink(index: Dict, bucket: object, key: CacheKey) -> None:
    """Remove ``key`` from ``index[bucket]``; drop the bucket if empty."""
    keys = index[bucket]
    keys.remove(key)
    if not keys:
        del index[bucket]
