"""Multicast routing substrate.

Implements the routing machinery the paper's experiments run on:

* DVMRP-style source-rooted shortest-path trees over tunnel metrics
  (:mod:`repro.routing.spt`),
* shared trees as built by CBT / sparse-mode PIM
  (:mod:`repro.routing.shared`),
* TTL scoping semantics — decrement, then drop below the configured
  threshold — exposed as vectorised "minimum required TTL" matrices
  (:mod:`repro.routing.scoping`), and the hop-by-hop forwarding over
  DVMRP delivery trees that those matrices are checked against
  (:mod:`repro.routing.forwarding`).
"""

from repro.routing.admin_scoping import (
    AdminScopeMap,
    ScopeZone,
    zones_from_labels,
)
from repro.routing.forwarding import ForwardingEngine
from repro.routing.scoping import ScopeMap
from repro.routing.shared import SharedTree
from repro.routing.spt import ShortestPathForest, ShortestPathTree

__all__ = [
    "AdminScopeMap",
    "ForwardingEngine",
    "ScopeMap",
    "ScopeZone",
    "SharedTree",
    "ShortestPathForest",
    "ShortestPathTree",
    "zones_from_labels",
]
