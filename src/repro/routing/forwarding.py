"""Packet-level multicast forwarding (an mrouted work-alike).

Everything else in the repository reasons about scoping through the
precomputed min-required-TTL matrices of :mod:`repro.routing.scoping`.
This module implements the *mechanism* those matrices summarise: hop
by hop forwarding with per-hop TTL decrement, threshold checks at
boundary links, and DVMRP reverse-path delivery trees — i.e. what an
mrouted daemon actually does to a packet.

Its one job is to cross-validate the vectorised scoping analysis
against a faithful mechanism (see ``tests/test_routing_forwarding.py``:
for random topologies, the set of routers a hop-by-hop packet reaches
equals ``ScopeMap.reachable``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Set

import numpy as np

from repro.routing.spt import NO_PREDECESSOR, ShortestPathForest
from repro.topology.graph import DVMRP_INFINITY, Topology


@dataclass
class DeliveryRecord:
    """One router's reception of a packet."""

    node: int
    at_time: float
    remaining_ttl: int
    hops: int


class ForwardingEngine:
    """Hop-by-hop DVMRP-style forwarding over a topology.

    Packets follow the per-source reverse-path delivery tree.  With
    symmetric metrics the reverse shortest paths DVMRP uses equal
    forward shortest paths, so the trees come from a Dijkstra forest
    over tunnel metrics, and a path whose total metric reaches
    ``DVMRP_INFINITY`` (32) is cut, exactly as DVMRP's infinity does.
    At each link the engine decrements the TTL and drops the packet
    if the result is below the link's threshold (the §1 semantics).
    Forwarding is instantaneous; each record carries the summed link
    delays.
    """

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self._pairs = ShortestPathForest(topology, weight="metric").all_trees()
        self._children_cache: Dict[int, List[List[int]]] = {}
        self.packets_forwarded = 0
        self.packets_dropped_ttl = 0

    def delivery_children(self, source: int) -> List[List[int]]:
        """Forwarding children of every node on ``source``'s tree.

        ``result[v]`` lists the neighbours to which ``v`` forwards a
        packet originated by ``source`` (the nodes whose RPF neighbour
        is ``v``), with DVMRP-infinity paths cut.  Memoised per source.
        """
        cached = self._children_cache.get(source)
        if cached is not None:
            return cached
        n = self.topology.num_nodes
        children: List[List[int]] = [[] for __ in range(n)]
        pred = self._pairs.predecessor[source]
        dist = self._pairs.distance[source]
        for v in range(n):
            if v == source:
                continue
            p = int(pred[v])
            if p == NO_PREDECESSOR:
                continue
            if not np.isfinite(dist[v]) or dist[v] >= DVMRP_INFINITY:
                continue
            children[p].append(v)
        self._children_cache[source] = children
        return children

    def flood(self, source: int, ttl: int) -> List[DeliveryRecord]:
        """Deliver a packet everywhere it can go, instantaneously.

        Returns one record per router reached (the source itself is
        included with hops=0).
        """
        if not 0 <= ttl <= 255:
            raise ValueError(f"ttl {ttl} outside [0, 255]")
        children = self.delivery_children(source)
        records = [DeliveryRecord(source, 0.0, ttl, 0)]
        stack = [(source, ttl, 0, 0.0)]
        while stack:
            node, remaining, hops, elapsed = stack.pop()
            for child in children[node]:
                link = self.topology.link(node, child)
                new_ttl = remaining - 1
                if new_ttl < link.threshold:
                    self.packets_dropped_ttl += 1
                    continue
                self.packets_forwarded += 1
                arrival = elapsed + link.delay
                records.append(DeliveryRecord(child, arrival, new_ttl,
                                              hops + 1))
                stack.append((child, new_ttl, hops + 1, arrival))
        return records

    def reachable_set(self, source: int, ttl: int) -> Set[int]:
        """Routers that receive a (source, ttl) packet."""
        return {record.node for record in self.flood(source, ttl)}
