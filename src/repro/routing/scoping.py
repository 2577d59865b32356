"""TTL scoping semantics.

A router forwarding a multicast packet over a link decrements the TTL
and then drops the packet if the result is below the link's configured
threshold (§1 of the paper).  Along a delivery-tree path from source
``s``, a packet sent with TTL ``t`` survives the ``k``-th hop crossing a
link with threshold ``theta`` iff ``t - k >= theta``.  The minimum TTL
that delivers a packet from ``s`` to ``v`` is therefore::

    need(s, v) = max over hops k on the tree path of (theta_k + k)

This module computes the full ``need`` matrix once per topology; every
scoping question in the allocation experiments then becomes a vectorised
comparison:

* which nodes hear a session announced from ``s`` with TTL ``t``:
  ``need[s] <= t``, the reach mask the allocation world adds to its
  per-node count tables;
* whether two sessions' data scopes overlap:
  ``any(reach(a) & reach(b))``, asked of two reach masks packed into
  Python ints, so one test is a single ``&``.

The asymmetry the paper describes (§1 "Scoping Requirements") arises
naturally: ``need`` is not symmetric when thresholds sit at different
hop distances from the two endpoints (fig. 9).
"""

from __future__ import annotations

from typing import Dict, Tuple

import numpy as np

from repro.routing.spt import NO_PREDECESSOR, ShortestPathForest
from repro.topology.graph import Topology

#: Sentinel for "no TTL can deliver" (disconnected); larger than any TTL.
UNREACHABLE_TTL = 10_000


class ScopeMap:
    """Minimum-required-TTL matrix plus cached reachability queries.

    ``need`` is never written after construction, so reach masks are
    cached beside it: as bool arrays for :meth:`reachable`, and packed
    into ints for :meth:`scopes_overlap`.
    """

    def __init__(self, need: np.ndarray) -> None:
        if need.ndim != 2 or need.shape[0] != need.shape[1]:
            raise ValueError(f"need must be square, got {need.shape}")
        self.need = need
        self._reach_cache: Dict[Tuple[int, int], np.ndarray] = {}
        self._reach_bits: Dict[Tuple[int, int], int] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_topology(cls, topology: Topology,
                      weight: str = "metric") -> "ScopeMap":
        """Compute the min-required-TTL matrix for ``topology``.

        Delivery trees are shortest-path trees under ``weight`` (DVMRP
        metrics by default).
        """
        forest = ShortestPathForest(topology, weight)
        pairs = forest.all_trees()
        depth = pairs.hop_depths()
        n = topology.num_nodes
        thresholds = _threshold_matrix(topology)

        pred = pairs.predecessor
        valid = pred != NO_PREDECESSOR
        safe_pred = np.where(valid, pred, 0)
        cols = np.arange(n)[None, :].repeat(n, axis=0)
        # Threshold of the final link (parent -> node) on each tree path.
        link_thresh = thresholds[safe_pred, cols]

        need = np.full((n, n), UNREACHABLE_TTL, dtype=np.int32)
        np.fill_diagonal(need, 0)
        # Synchronous parent-pointer iteration, as in hop_depths: a node
        # at depth k is finalised in round k.
        hop_term = np.where(valid, link_thresh + depth, UNREACHABLE_TTL)
        rows = np.arange(n)[:, None]
        for __ in range(256):
            parent_need = need[rows, safe_pred]
            candidate = np.where(
                valid & (parent_need < UNREACHABLE_TTL),
                np.maximum(parent_need, hop_term),
                UNREACHABLE_TTL,
            )
            updated = np.minimum(need, candidate)
            np.fill_diagonal(updated, 0)
            if np.array_equal(updated, need):
                break
            need = updated
        if need.max() < 2 ** 15:
            need = need.astype(np.int16)
        return cls(need)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.need.shape[0]

    def reachable(self, source: int, ttl: int) -> np.ndarray:
        """Boolean mask of nodes that hear (source, ttl) traffic."""
        key = (int(source), int(ttl))
        cached = self._reach_cache.get(key)
        if cached is None:
            cached = self.need[source] <= ttl
            cached.flags.writeable = False
            self._reach_cache[key] = cached
        return cached

    def can_hear(self, listener: int, source: int, ttl: int) -> bool:
        """True if ``listener`` receives (source, ttl) traffic."""
        return bool(self.need[source, listener] <= ttl)

    def scopes_overlap(self, src_a: int, ttl_a: int,
                       src_b: int, ttl_b: int) -> bool:
        """True if the data scopes of two sessions intersect anywhere.

        This is the clash condition: a receiver inside the intersection
        gets both sessions' traffic on the same group address.  Each
        scope is a cached bitset (bit per node), so the test is one
        ``&`` of two ints, read from the cache inline.
        """
        reach_bits = self._reach_bits
        bits_a = reach_bits.get((src_a, ttl_a))
        if bits_a is None:
            bits_a = self._pack_bits(src_a, ttl_a)
        bits_b = reach_bits.get((src_b, ttl_b))
        if bits_b is None:
            bits_b = self._pack_bits(src_b, ttl_b)
        return (bits_a & bits_b) != 0

    def _pack_bits(self, source: int, ttl: int) -> int:
        """Pack the (source, ttl) reach mask into an int and cache it."""
        packed = np.packbits(self.need[source] <= ttl)
        bits = int.from_bytes(packed.tobytes(), "big")
        self._reach_bits[source, ttl] = bits
        return bits

    def scope_size(self, source: int, ttl: int) -> int:
        """Number of nodes inside the (source, ttl) scope."""
        return int(self.reachable(source, ttl).sum())


def _threshold_matrix(topology: Topology) -> np.ndarray:
    """Dense [n, n] matrix of link TTL thresholds (0 where no link)."""
    n = topology.num_nodes
    thresholds = np.zeros((n, n), dtype=np.int16)
    for link in topology.links():
        thresholds[link.u, link.v] = link.threshold
        thresholds[link.v, link.u] = link.threshold
    return thresholds
