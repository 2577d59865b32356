"""Shortest-path trees over a :class:`~repro.topology.graph.Topology`.

DVMRP builds per-source delivery trees from reverse shortest paths over
tunnel metrics; with the symmetric link metrics used here (and in the
paper's mcollect-derived model) reverse and forward shortest paths
coincide, so we compute ordinary Dijkstra trees.

Two weightings matter:

* ``"metric"`` — DVMRP routing metric; determines tree *shape* and hence
  hop counts and TTL scoping.
* ``"delay"``  — propagation delay; determines packet timing in the
  request-response simulations of §3.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict

import numpy as np

from repro.topology.graph import Topology

# scipy is imported only where a CSR is built or Dijkstra runs, so a
# process that routes no topology (the SAP stack on receiver maps)
# never loads it.  No other module in the package imports scipy.
if TYPE_CHECKING:
    from scipy.sparse import csr_matrix

#: scipy.csgraph's "no predecessor" sentinel.
NO_PREDECESSOR = -9999

_WEIGHT_FIELDS = ("metric", "delay", "hops")


def topology_csr(topology: Topology, weight: str = "metric") -> csr_matrix:
    """Build a symmetric CSR adjacency matrix weighted by ``weight``.

    ``weight`` is one of ``"metric"``, ``"delay"`` or ``"hops"`` (every
    link costs 1).
    """
    from scipy.sparse import csr_matrix

    if weight not in _WEIGHT_FIELDS:
        raise ValueError(f"unknown weight {weight!r}; use one of "
                         f"{_WEIGHT_FIELDS}")
    us, vs, metrics, __, delays = topology.edge_arrays()
    if weight == "metric":
        data = metrics.astype(np.float64)
    elif weight == "delay":
        data = delays
    else:
        data = np.ones(len(us), dtype=np.float64)
    n = topology.num_nodes
    rows = np.concatenate([us, vs])
    cols = np.concatenate([vs, us])
    vals = np.concatenate([data, data])
    return csr_matrix((vals, (rows, cols)), shape=(n, n))


@dataclass
class ShortestPathTree:
    """A single-source shortest-path tree.

    Attributes:
        source: the root node.
        distance: array of path costs from the root (inf if unreachable).
        predecessor: parent of each node on its shortest path
            (``NO_PREDECESSOR`` for the root and unreachable nodes).
    """

    source: int
    distance: np.ndarray
    predecessor: np.ndarray

    def reachable(self) -> np.ndarray:
        """Boolean mask of nodes reachable from the source."""
        return np.isfinite(self.distance)

    def path(self, node: int) -> list:
        """Node sequence from ``source`` to ``node`` (inclusive)."""
        if not np.isfinite(self.distance[node]):
            raise ValueError(f"node {node} unreachable from {self.source}")
        out = [node]
        while node != self.source:
            node = int(self.predecessor[node])
            out.append(node)
        out.reverse()
        return out


class ShortestPathForest:
    """Cached per-source shortest-path trees for one topology/weight."""

    def __init__(self, topology: Topology, weight: str = "metric") -> None:
        self.topology = topology
        self.weight = weight
        self._csr = topology_csr(topology, weight)
        self._trees: Dict[int, ShortestPathTree] = {}

    def tree(self, source: int) -> ShortestPathTree:
        """Shortest-path tree rooted at ``source`` (memoised)."""
        cached = self._trees.get(source)
        if cached is None:
            from scipy.sparse.csgraph import dijkstra

            dist, pred = dijkstra(self._csr, indices=source,
                                  return_predecessors=True)
            cached = ShortestPathTree(source, dist, pred)
            self._trees[source] = cached
        return cached

    def distances_from(self, source: int) -> np.ndarray:
        """Path cost from ``source`` to every node."""
        return self.tree(source).distance

    def all_trees(self) -> "AllPairsTrees":
        """Dijkstra from every node at once (uses scipy's C core)."""
        from scipy.sparse.csgraph import dijkstra

        dist, pred = dijkstra(self._csr, return_predecessors=True)
        return AllPairsTrees(distance=dist, predecessor=pred)


@dataclass
class AllPairsTrees:
    """All-pairs shortest-path result.

    Attributes:
        distance: ``[n, n]`` matrix of path costs; ``distance[s, v]``.
        predecessor: ``[n, n]``; ``predecessor[s, v]`` is v's parent on
            the tree rooted at s.
    """

    distance: np.ndarray
    predecessor: np.ndarray

    @property
    def num_nodes(self) -> int:
        return self.distance.shape[0]

    def hop_depths(self, max_rounds: int = 255) -> np.ndarray:
        """Hop count of every node in every source's tree.

        Returns an ``[n, n]`` int16 array; unreachable entries are -1.
        Computed by synchronous parent-pointer iteration: a node at hop
        depth *k* receives its final value in round *k*.
        """
        n = self.num_nodes
        pred = self.predecessor
        depth = np.full((n, n), -1, dtype=np.int32)
        np.fill_diagonal(depth, 0)
        valid = pred != NO_PREDECESSOR
        rows = np.arange(n)[:, None]
        safe_pred = np.where(valid, pred, 0)
        for __ in range(max_rounds):
            parent_depth = depth[rows, safe_pred]
            candidate = np.where(valid & (parent_depth >= 0),
                                 parent_depth + 1, -1)
            updated = np.maximum(depth, candidate.astype(np.int32))
            if np.array_equal(updated, depth):
                break
            depth = updated
        return depth.astype(np.int16)
