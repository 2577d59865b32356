"""An mcollect/mwatch emulator — the paper's data-collection pipeline.

The paper's topology "as gathered from the mcollect network monitor"
came from walking the Mbone: the mwatch daemon queried each known
mrouter for its neighbour list and followed the answers outward.  The
result was incomplete — "the mcollect data is not a complete mapping
of all of the Mbone because some mrouters do not have unicast routes
to the mwatch daemon" — and "any disconnected subtrees of the network
were removed", leaving 1864 nodes.

This module reproduces that pipeline against a ground-truth topology:
a breadth-first neighbour-query walk from a monitor node, with a
configurable fraction of mrouters unreachable to queries (their links
are only seen from the far end, and mrouters *behind* them may be
missed entirely), followed by the connected-component cleanup.  It
lets the experiments ask how robust the paper's results are to the
map's known incompleteness.
"""

from __future__ import annotations

from typing import Dict, List, Set

import numpy as np

from repro.topology.graph import Topology


class McollectProbe:
    """Walks a topology the way mwatch walked the Mbone.

    Args:
        topology: ground truth.
        unreachable_fraction: probability an mrouter does not answer
            queries (no unicast route back to the monitor).
        rng: numpy Generator (drives which mrouters are silent).
    """

    def __init__(self, topology: Topology,
                 unreachable_fraction: float = 0.0,
                 *, rng: np.random.Generator) -> None:
        if not 0.0 <= unreachable_fraction < 1.0:
            raise ValueError(
                f"unreachable_fraction must be in [0, 1): "
                f"{unreachable_fraction}"
            )
        self.topology = topology
        self.unreachable_fraction = unreachable_fraction
        self.rng = rng

    def _choose_silent(self, monitor: int) -> Set[int]:
        silent: Set[int] = set()
        draws = self.rng.random(self.topology.num_nodes)
        for node in self.topology.nodes():
            if node != monitor and \
                    draws[node] < self.unreachable_fraction:
                silent.add(node)
        return silent

    def collect(self, monitor: int = 0) -> Topology:
        """Run the walk; returns the (partial) collected map.

        Silent mrouters appear in the map when a responding neighbour
        reports the link to them, but their own neighbour lists are
        never learned, so anything *only* reachable through them stays
        invisible.  Finally, disconnected fragments are dropped, as the
        paper did.
        """
        silent = self._choose_silent(monitor)
        discovered: Set[int] = {monitor}
        queried: Set[int] = set()
        frontier: List[int] = [monitor]
        links: Dict[tuple, tuple] = {}
        while frontier:
            node = frontier.pop()
            if node in queried or node in silent:
                continue
            queried.add(node)
            for neighbor in self.topology.neighbors(node):
                link = self.topology.link(node, neighbor)
                key = (link.u, link.v)
                links[key] = (link.metric, link.threshold, link.delay)
                if neighbor not in discovered:
                    discovered.add(neighbor)
                    frontier.append(neighbor)
        return self._build_map(discovered, links)

    def _build_map(self, discovered: Set[int],
                   links: Dict[tuple, tuple]) -> Topology:
        mapping = {old: new
                   for new, old in enumerate(sorted(discovered))}
        partial = Topology()
        for old in sorted(discovered):
            partial.add_node(self.topology.position(old),
                             self.topology.label(old))
        for (u, v), (metric, threshold, delay) in links.items():
            partial.add_link(mapping[u], mapping[v], metric=metric,
                             threshold=threshold, delay=delay)
        return partial.largest_connected_subgraph()
