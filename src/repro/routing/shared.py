"""Shared multicast trees (CBT / sparse-mode PIM analogue).

In the request-response simulations of §3, packets travel either over
per-source shortest-path trees or over a single *shared* tree rooted at
a core.  The Doar-style generator's nearest-neighbour construction tree
"creates a tree similar to shared trees created by CBT and sparse-mode
PIM" (paper §3); this module wraps such a tree and answers the delay
queries the suppression simulation needs.
"""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

import numpy as np

from repro.topology.graph import Topology


class SharedTree:
    """A delay-weighted tree over a subset of a topology's links.

    Args:
        num_nodes: number of nodes (ids ``0..num_nodes-1``).
        edges: iterable of ``(u, v, delay)`` tree edges.  Must form a
            spanning tree (``num_nodes - 1`` edges, connected).
        core: the tree's core/root node (CBT core, PIM RP).
    """

    def __init__(self, num_nodes: int,
                 edges: Iterable[Tuple[int, int, float]],
                 core: int = 0) -> None:
        self.num_nodes = num_nodes
        self.core = core
        self._adj: List[List[Tuple[int, float]]] = [
            [] for __ in range(num_nodes)
        ]
        count = 0
        for u, v, delay in edges:
            self._adj[u].append((v, float(delay)))
            self._adj[v].append((u, float(delay)))
            count += 1
        if count != num_nodes - 1:
            raise ValueError(
                f"a spanning tree over {num_nodes} nodes needs "
                f"{num_nodes - 1} edges, got {count}"
            )
        if self._reached(core) != num_nodes:
            raise ValueError("edges do not form a connected tree")

    @classmethod
    def from_topology(cls, topology: Topology,
                      edges: Sequence[Tuple[int, int]],
                      core: int = 0) -> "SharedTree":
        """Build from a topology and a list of its links to use."""
        tree_edges = []
        for u, v in edges:
            link = topology.link(u, v)
            tree_edges.append((u, v, link.delay))
        return cls(topology.num_nodes, tree_edges, core=core)

    def _reached(self, root: int) -> int:
        """How many nodes a traversal from ``root`` reaches."""
        seen = {root}
        stack = [root]
        while stack:
            for nbr, __ in self._adj[stack.pop()]:
                if nbr not in seen:
                    seen.add(nbr)
                    stack.append(nbr)
        return len(seen)

    def delays_from(self, node: int) -> np.ndarray:
        """One-way tree-path delay from ``node`` to every node.

        On a shared tree every packet travels along the unique tree
        path, so this fully determines multicast timing.
        """
        delays = np.full(self.num_nodes, np.inf)
        delays[node] = 0.0
        stack = [node]
        seen = np.zeros(self.num_nodes, dtype=bool)
        seen[node] = True
        while stack:
            current = stack.pop()
            base = delays[current]
            for nbr, delay in self._adj[current]:
                if not seen[nbr]:
                    seen[nbr] = True
                    delays[nbr] = base + delay
                    stack.append(nbr)
        return delays

    def __repr__(self) -> str:
        return f"SharedTree(nodes={self.num_nodes}, core={self.core})"
