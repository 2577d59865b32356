"""Shared state for the allocation simulations.

An :class:`AllocationWorld` tracks every live session in the simulated
internetwork and answers the two questions the experiments keep asking:

* what does the allocator at node ``b`` *see*?  (the sessions whose
  scope covers ``b`` — the announce/listen view, assuming the perfect
  announcement delivery the paper assumes in figs. 5/12/13);
* does a new session *clash* with any live session?  (same address,
  overlapping data scopes).

Session state is kept in parallel numpy-backed columns so visibility is
one vectorised gather per allocation, from the scope map's node-major
copy of ``need`` (one contiguous row per listening node).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.allocator import VisibleSet
from repro.core.session import Session
from repro.routing.scoping import ScopeMap


class AllocationWorld:
    """Live-session table over a scoped topology."""

    def __init__(self, scope_map: ScopeMap,
                 initial_capacity: int = 1024) -> None:
        self.scope_map = scope_map
        self._capacity = max(16, initial_capacity)
        self._sources = np.zeros(self._capacity, dtype=np.int64)
        self._ttls = np.zeros(self._capacity, dtype=np.int64)
        self._addresses = np.zeros(self._capacity, dtype=np.int64)
        self._count = 0
        self._sessions: List[Session] = []
        self._by_address: Dict[int, List[int]] = {}

    def __len__(self) -> int:
        return self._count

    @property
    def sessions(self) -> List[Session]:
        """The live sessions, in table order."""
        return self._sessions[:self._count]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, session: Session) -> int:
        """Insert a session; returns its slot index."""
        if self._count == self._capacity:
            self._grow()
        slot = self._count
        self._sources[slot] = session.source
        self._ttls[slot] = session.ttl
        self._addresses[slot] = session.address
        self._sessions.append(session)
        self._by_address.setdefault(session.address, []).append(slot)
        self._count += 1
        return slot

    def remove_at(self, slot: int) -> Session:
        """Remove the session in ``slot`` (swap-with-last, O(1))."""
        if not 0 <= slot < self._count:
            raise IndexError(f"slot {slot} out of {self._count}")
        removed = self._sessions[slot]
        last = self._count - 1
        self._unindex(slot, removed.address)
        if slot != last:
            moved = self._sessions[last]
            self._sessions[slot] = moved
            self._sources[slot] = self._sources[last]
            self._ttls[slot] = self._ttls[last]
            self._addresses[slot] = self._addresses[last]
            self._unindex(last, moved.address)
            self._by_address.setdefault(moved.address, []).append(slot)
        self._sessions.pop()
        self._count -= 1
        return removed

    def _unindex(self, slot: int, address: int) -> None:
        bucket = self._by_address[address]
        bucket.remove(slot)
        if not bucket:
            del self._by_address[address]

    def _grow(self) -> None:
        self._capacity *= 2
        for name in ("_sources", "_ttls", "_addresses"):
            old = getattr(self, name)
            grown = np.zeros(self._capacity, dtype=old.dtype)
            grown[: self._count] = old[: self._count]
            setattr(self, name, grown)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def visible_at(self, node: int) -> VisibleSet:
        """Sessions whose announcements reach ``node``."""
        count = self._count
        ttls = self._ttls[:count]
        need = self.scope_map.need_by_listener[node]
        mask = need.take(self._sources[:count]) <= ttls
        return VisibleSet(self._addresses[:count][mask], ttls[mask])

    def clashes(self, session: Session) -> bool:
        """Would ``session`` clash with any live session?

        Checks only live sessions sharing the address, then tests data
        scope overlap through the scope map.
        """
        for slot in self._by_address.get(session.address, ()):
            other = self._sessions[slot]
            if self.scope_map.scopes_overlap(
                session.source, session.ttl, other.source, other.ttl
            ):
                return True
        return False

    def random_slot(self, rng: np.random.Generator) -> int:
        """A uniformly random occupied slot."""
        if self._count == 0:
            raise ValueError("world is empty")
        return int(rng.integers(0, self._count))
