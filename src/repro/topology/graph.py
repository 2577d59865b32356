"""Multicast topology graph.

Nodes are dense integers ``0..n-1``.  Links are undirected and carry the
three attributes the paper's machinery needs:

* ``metric`` — the DVMRP routing metric (tunnel cost),
* ``threshold`` — the TTL threshold configured on the link (packets whose
  TTL, after the per-hop decrement, is below the threshold are dropped),
* ``delay`` — one-way propagation delay in seconds.

The class is intentionally small and explicit rather than a wrapper over
a general graph library: the routing and scoping code needs exactly these
attributes and nothing else, and keeping the storage flat (adjacency
dicts plus parallel arrays on export) makes the vectorised analyses easy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Tuple

import numpy as np

#: TTL threshold carried by an ordinary (non-boundary) link.
DEFAULT_THRESHOLD = 1
#: DVMRP treats metric 32 as infinity (unreachable).
DVMRP_INFINITY = 32


@dataclass(frozen=True)
class Link:
    """An undirected link between two nodes.

    Attributes:
        u: lower-numbered endpoint.
        v: higher-numbered endpoint.
        metric: DVMRP routing metric, ``1 <= metric < DVMRP_INFINITY``.
        threshold: TTL threshold (``>= 1``); 1 means no scoping boundary.
        delay: one-way propagation delay in seconds.
    """

    u: int
    v: int
    metric: int = 1
    threshold: int = DEFAULT_THRESHOLD
    delay: float = 0.001

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise ValueError(f"self-loop at node {self.u}")
        if not 1 <= self.metric < DVMRP_INFINITY:
            raise ValueError(
                f"metric {self.metric} outside [1, {DVMRP_INFINITY})"
            )
        if self.threshold < 1 or self.threshold > 255:
            raise ValueError(f"threshold {self.threshold} outside [1, 255]")
        if self.delay < 0:
            raise ValueError(f"negative delay {self.delay}")


class Topology:
    """A multicast internetwork of nodes and attribute-carrying links."""

    def __init__(self) -> None:
        self._adj: List[Dict[int, Link]] = []
        self._positions: List[Optional[Tuple[float, float]]] = []
        self._labels: List[Optional[str]] = []
        self._num_links = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_node(self, position: Optional[Tuple[float, float]] = None,
                 label: Optional[str] = None) -> int:
        """Add a node; returns its id."""
        self._adj.append({})
        self._positions.append(position)
        self._labels.append(label)
        return len(self._adj) - 1

    def add_link(self, u: int, v: int, metric: int = 1,
                 threshold: int = DEFAULT_THRESHOLD,
                 delay: float = 0.001) -> Link:
        """Add an undirected link; replaces any existing (u, v) link."""
        self._check_node(u)
        self._check_node(v)
        lo, hi = (u, v) if u < v else (v, u)
        link = Link(lo, hi, metric=metric, threshold=threshold, delay=delay)
        if v not in self._adj[u]:
            self._num_links += 1
        self._adj[u][v] = link
        self._adj[v][u] = link
        return link

    def _check_node(self, node: int) -> None:
        if not 0 <= node < len(self._adj):
            raise KeyError(f"unknown node {node}")

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return len(self._adj)

    @property
    def num_links(self) -> int:
        return self._num_links

    def nodes(self) -> range:
        return range(len(self._adj))

    def neighbors(self, node: int) -> Iterator[int]:
        self._check_node(node)
        return iter(self._adj[node])

    def degree(self, node: int) -> int:
        self._check_node(node)
        return len(self._adj[node])

    def link(self, u: int, v: int) -> Link:
        """Return the link between ``u`` and ``v``.

        Raises:
            KeyError: if no such link exists.
        """
        self._check_node(u)
        link = self._adj[u].get(v)
        if link is None:
            raise KeyError(f"no link between {u} and {v}")
        return link

    def has_link(self, u: int, v: int) -> bool:
        self._check_node(u)
        return v in self._adj[u]

    def links(self) -> Iterator[Link]:
        """Iterate over each undirected link exactly once."""
        for u, nbrs in enumerate(self._adj):
            for v, link in nbrs.items():
                if u < v:
                    yield link

    def position(self, node: int) -> Optional[Tuple[float, float]]:
        self._check_node(node)
        return self._positions[node]

    def label(self, node: int) -> Optional[str]:
        self._check_node(node)
        return self._labels[node]

    # ------------------------------------------------------------------
    # Connectivity
    # ------------------------------------------------------------------
    def connected_component(self, start: int = 0) -> List[int]:
        """Nodes reachable from ``start`` (breadth-first)."""
        self._check_node(start)
        seen = [False] * self.num_nodes
        seen[start] = True
        frontier = [start]
        order = [start]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for nbr in self._adj[node]:
                    if not seen[nbr]:
                        seen[nbr] = True
                        nxt.append(nbr)
                        order.append(nbr)
            frontier = nxt
        return order

    def is_connected(self) -> bool:
        if self.num_nodes == 0:
            return True
        return len(self.connected_component(0)) == self.num_nodes

    def largest_connected_subgraph(self) -> "Topology":
        """A copy restricted to the largest connected component.

        Mirrors the paper's pre-processing: "Any disconnected subtrees of
        the network were removed".  Node ids are renumbered densely.
        """
        remaining = set(self.nodes())
        best: List[int] = []
        while remaining:
            component = self._component_within(remaining)
            if len(component) > len(best):
                best = component
            remaining -= set(component)
        mapping = {old: new for new, old in enumerate(sorted(best))}
        sub = Topology()
        for old in sorted(best):
            sub.add_node(self._positions[old], self._labels[old])
        for link in self.links():
            if link.u in mapping and link.v in mapping:
                sub.add_link(mapping[link.u], mapping[link.v],
                             metric=link.metric, threshold=link.threshold,
                             delay=link.delay)
        return sub

    def _component_within(self, remaining: set) -> List[int]:
        start = next(iter(remaining))
        seen = {start}
        frontier = [start]
        order = [start]
        while frontier:
            nxt: List[int] = []
            for node in frontier:
                for nbr in self._adj[node]:
                    if nbr in remaining and nbr not in seen:
                        seen.add(nbr)
                        nxt.append(nbr)
                        order.append(nbr)
            frontier = nxt
        return order

    # ------------------------------------------------------------------
    # Array export (for scipy/numpy based routing)
    # ------------------------------------------------------------------
    def edge_arrays(self) -> Tuple[np.ndarray, np.ndarray, np.ndarray,
                                   np.ndarray, np.ndarray]:
        """Return (us, vs, metrics, thresholds, delays) for every link.

        Each undirected link appears once; callers symmetrise as needed.
        """
        us, vs, metrics, thresholds, delays = [], [], [], [], []
        for link in self.links():
            us.append(link.u)
            vs.append(link.v)
            metrics.append(link.metric)
            thresholds.append(link.threshold)
            delays.append(link.delay)
        return (
            np.asarray(us, dtype=np.int32),
            np.asarray(vs, dtype=np.int32),
            np.asarray(metrics, dtype=np.int32),
            np.asarray(thresholds, dtype=np.int32),
            np.asarray(delays, dtype=np.float64),
        )

    def __repr__(self) -> str:
        return f"Topology(nodes={self.num_nodes}, links={self.num_links})"
