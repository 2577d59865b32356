"""Administrative scoping (paper §1, "Scoping Requirements").

"Administrative scoping is a relatively simple problem domain in that,
barring failures, two sites communicating within the scope zone will
be able to hear each other's messages, and no site outside the scope
zone can get any multicast packet into the scope zone if it uses an
address from the scope zone range."

We model RFC 2365-style zones: a zone is a set of nodes plus an
address range; zones of the same range never overlap, zones of
different ranges may nest.  Unlike TTL scoping, visibility inside a
zone is *symmetric* — which is exactly why "the simpler solutions work
well for administrative scope zone address allocation".
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Set

import numpy as np

from repro.topology.graph import Topology


@dataclass(frozen=True)
class ScopeZone:
    """One administratively scoped zone.

    Attributes:
        name: human-readable zone name (e.g. "isi-campus").
        members: the node ids inside the zone boundary.
        range_lo: first address index of the zone's range.
        range_hi: one past the last address index.
    """

    name: str
    members: frozenset
    range_lo: int
    range_hi: int

    def __post_init__(self) -> None:
        if not self.members:
            raise ValueError(f"zone {self.name!r} has no members")
        if not 0 <= self.range_lo < self.range_hi:
            raise ValueError(
                f"zone {self.name!r} has bad range "
                f"[{self.range_lo}, {self.range_hi})"
            )

    def contains_node(self, node: int) -> bool:
        return node in self.members

    def contains_address(self, address: int) -> bool:
        return self.range_lo <= address < self.range_hi

    @property
    def range_size(self) -> int:
        return self.range_hi - self.range_lo


class AdminScopeMap:
    """The zone structure of a topology.

    Zones with the *same* address range must be node-disjoint (they
    are reuses of the range in topologically-separate places); zones
    with different ranges may nest or overlap freely (a campus zone
    inside an organisation zone).
    """

    def __init__(self, num_nodes: int,
                 zones: Iterable[ScopeZone] = ()) -> None:
        if num_nodes <= 0:
            raise ValueError("num_nodes must be positive")
        self.num_nodes = num_nodes
        self._zones: List[ScopeZone] = []
        for zone in zones:
            self.add_zone(zone)

    def add_zone(self, zone: ScopeZone) -> None:
        """Add a zone.

        Raises:
            ValueError: if a member is out of range, or the zone's
                address range collides with an overlapping zone that
                shares nodes (same range must mean disjoint members).
        """
        for node in zone.members:
            if not 0 <= node < self.num_nodes:
                raise ValueError(
                    f"zone {zone.name!r} member {node} outside topology"
                )
        for other in self._zones:
            ranges_overlap = (zone.range_lo < other.range_hi
                              and other.range_lo < zone.range_hi)
            if ranges_overlap and not (zone.range_lo == other.range_lo and
                                       zone.range_hi == other.range_hi):
                raise ValueError(
                    f"zones {zone.name!r} and {other.name!r} have "
                    f"partially overlapping address ranges"
                )
            if ranges_overlap and zone.members & other.members:
                raise ValueError(
                    f"zones {zone.name!r} and {other.name!r} share the "
                    f"range AND nodes — range reuse requires disjoint "
                    f"zones"
                )
        self._zones.append(zone)

    @property
    def zones(self) -> List[ScopeZone]:
        return list(self._zones)

    def zones_of(self, node: int) -> List[ScopeZone]:
        """Zones containing ``node``."""
        return [z for z in self._zones if z.contains_node(node)]

    def reachable(self, source: int, address: int) -> np.ndarray:
        """Nodes that receive (source, address) traffic.

        RFC 2365 semantics: a zone boundary blocks scoped traffic in
        *both* directions.  A source inside a zone for the address's
        range reaches exactly the zone; a source outside every such
        zone reaches everything except those zones' interiors ("no
        site outside the scope zone can get any multicast packet into
        the scope zone").  Addresses outside every zone range flood
        everywhere (TTL permitting — admin scoping composes with, but
        is modelled independently of, TTL here).
        """
        mask = np.ones(self.num_nodes, dtype=bool)
        matching = [z for z in self._zones if z.contains_address(address)]
        for zone in matching:
            if zone.contains_node(source):
                inside = np.zeros(self.num_nodes, dtype=bool)
                inside[list(zone.members)] = True
                return inside
        for zone in matching:
            mask[list(zone.members)] = False
        return mask


def zones_from_labels(topology: Topology, prefix_depth: int,
                      range_lo: int, range_hi: int) -> List[ScopeZone]:
    """Build same-range, disjoint zones from label prefixes.

    Groups nodes by the first ``prefix_depth`` components of their
    label (e.g. depth 2 on the synthetic Mbone groups by country) and
    gives each group the same reusable address range — the standard
    RFC 2365 local-scope pattern.
    """
    groups: Dict[str, Set[int]] = {}
    for node in topology.nodes():
        label = topology.label(node) or f"unlabelled/{node}"
        key = "/".join(label.split("/")[:prefix_depth])
        groups.setdefault(key, set()).add(node)
    return [
        ScopeZone(name=key, members=frozenset(nodes),
                  range_lo=range_lo, range_hi=range_hi)
        for key, nodes in sorted(groups.items())
    ]
