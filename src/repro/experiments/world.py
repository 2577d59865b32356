"""Shared state for the allocation simulations.

An :class:`AllocationWorld` tracks every live session in the simulated
internetwork and answers the two questions the experiments keep asking:

* what does the allocator at node ``b`` *see*?  (the sessions whose
  scope covers ``b`` — the announce/listen view, assuming the perfect
  announcement delivery the paper assumes in figs. 5/12/13);
* does a new session *clash* with any live session?  (same address,
  overlapping data scopes).

Visibility is kept as counts, not gathered per allocation.  Two tables
count the live sessions each node hears: one per (address, node) and
one per (TTL, node).  Adding or removing a session adds or subtracts
its reach mask ``need[source] <= ttl`` on one row of each, and
:meth:`AllocationWorld.visible_at` hands the allocator one node's
column of both as an :class:`~repro.core.allocator.OccupancyView`.
The view reads the live tables, so it holds only until the world
changes.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.allocator import OccupancyView
from repro.core.partitions import MAX_TTL
from repro.core.session import Session
from repro.routing.scoping import ScopeMap

#: The tables count in int16, and no count exceeds the live sessions.
MAX_LIVE_SESSIONS = int(np.iinfo(np.int16).max)


class AllocationWorld:
    """Live-session table over a scoped topology.

    Args:
        scope_map: the topology's scoping.
        space_size: addresses in the allocation space; every session's
            address must lie in ``[0, space_size)``.
    """

    def __init__(self, scope_map: ScopeMap, space_size: int) -> None:
        self.scope_map = scope_map
        nodes = scope_map.num_nodes
        #: ``_address_counts[a, v]``: live sessions at address ``a``
        #: heard at node ``v``.  Address-major, so one session's update
        #: is one contiguous row.
        self._address_counts = np.zeros((space_size, nodes),
                                        dtype=np.int16)
        #: ``_ttl_counts[t, v]``: live sessions of TTL ``t`` heard at
        #: ``v``; TTL-major for the same reason.
        self._ttl_counts = np.zeros((MAX_TTL + 1, nodes), dtype=np.int16)
        self._sessions: List[Session] = []
        self._by_address: Dict[int, List[int]] = {}

    def __len__(self) -> int:
        return len(self._sessions)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def add(self, session: Session) -> int:
        """Insert a session; returns its slot index."""
        if len(self._sessions) == MAX_LIVE_SESSIONS:
            raise OverflowError(
                f"the world holds {MAX_LIVE_SESSIONS} live sessions, "
                f"the most its int16 counts can tally")
        row = self._address_counts[session.address]
        reach = self._reach(session)
        row += reach
        row = self._ttl_counts[session.ttl]
        row += reach
        slot = len(self._sessions)
        self._sessions.append(session)
        self._by_address.setdefault(session.address, []).append(slot)
        return slot

    def remove_at(self, slot: int) -> Session:
        """Remove the session in ``slot``; the last session moves into
        the slot, so no other slot changes."""
        last = len(self._sessions) - 1
        if not 0 <= slot <= last:
            raise IndexError(f"slot {slot} out of {last + 1}")
        removed = self._sessions[slot]
        reach = self._reach(removed)
        row = self._address_counts[removed.address]
        row -= reach
        row = self._ttl_counts[removed.ttl]
        row -= reach
        self._unindex(slot, removed.address)
        if slot != last:
            moved = self._sessions[last]
            self._sessions[slot] = moved
            self._unindex(last, moved.address)
            self._by_address.setdefault(moved.address, []).append(
                slot)
        self._sessions.pop()
        return removed

    def _reach(self, session: Session) -> np.ndarray:
        """1 at each node that hears ``session``, else 0, as counts.

        Computed per call: a cache of every (source, TTL) mask would
        hold far more than the tables do.
        """
        need = self.scope_map.need[session.source]
        return (need <= session.ttl).astype(np.int16)

    def _unindex(self, slot: int, address: int) -> None:
        bucket = self._by_address[address]
        bucket.remove(slot)
        if not bucket:
            del self._by_address[address]

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def visible_at(self, node: int) -> OccupancyView:
        """Sessions whose announcements reach ``node``."""
        return OccupancyView(self._address_counts[:, node],
                             self._ttl_counts[:, node])

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
        if not self._sessions:
            raise ValueError("world is empty")
        return int(rng.integers(0, len(self._sessions)))
