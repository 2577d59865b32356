"""Address clash detection (paper §3 preliminaries).

Two sessions *clash* when they use the same group address and their
data scopes intersect somewhere in the network — a receiver inside the
intersection gets both sessions' traffic on one address.  Note the TTL
asymmetry (§1): the clash can exist even though neither announcing site
hears the other's announcement.
"""

from __future__ import annotations

from collections import defaultdict
from typing import Dict, List, Sequence, Tuple

from repro.core.session import Session
from repro.routing.scoping import ScopeMap


def find_clashing_pairs(sessions: Sequence[Session],
                        scope_map: ScopeMap) -> List[Tuple[int, int]]:
    """All clashing index pairs (i < j) within ``sessions``."""
    by_address: Dict[int, List[int]] = defaultdict(list)
    for idx, session in enumerate(sessions):
        by_address[session.address].append(idx)
    pairs: List[Tuple[int, int]] = []
    for indices in by_address.values():
        for pos, i in enumerate(indices):
            for j in indices[pos + 1:]:
                if scope_map.scopes_overlap(
                    sessions[i].source, sessions[i].ttl,
                    sessions[j].source, sessions[j].ttl,
                ):
                    pairs.append((i, j))
    return pairs
