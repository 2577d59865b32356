"""Multicast sessions as the allocation machinery sees them.

A session is minimally "the set of media streams it uses ..., the
multicast addresses and scope of those streams" (paper §1).  For the
allocation experiments the relevant projection is (address, ttl,
source); the SAP subpackage attaches the full SDP description.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Optional

from repro.sim.types import Duration, SimTime, SlotIndex, Ttl

_session_ids = itertools.count(1)


@dataclass
class Session:
    """A multicast session.

    Attributes:
        address: allocated group address, as an index into the owning
            :class:`~repro.core.address_space.MulticastAddressSpace`.
        ttl: the session's scope TTL.
        source: node id of the announcing site.
        session_id: unique id (auto-assigned if 0).
        created_at: simulated creation time.
        lifetime: advertised lifetime in seconds (None = indefinite).
        description: optional attached description (e.g. SDP).
    """

    address: SlotIndex
    ttl: Ttl
    source: int
    session_id: int = 0
    created_at: SimTime = 0.0
    lifetime: Optional[Duration] = None
    description: Any = None

    def __post_init__(self) -> None:
        if self.ttl < 1 or self.ttl > 255:
            raise ValueError(f"ttl {self.ttl} outside [1, 255]")
        if self.address < 0:
            raise ValueError(f"negative address {self.address}")
        if self.session_id == 0:
            self.session_id = next(_session_ids)

    def key(self) -> tuple:
        """Stable identity key (source, session_id)."""
        return (self.source, self.session_id)
