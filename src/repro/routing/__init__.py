"""Multicast routing substrate.

Implements the routing machinery the paper's experiments run on:

* DVMRP-style source-rooted shortest-path trees over tunnel metrics
  (:mod:`repro.routing.spt`, :mod:`repro.routing.dvmrp`),
* shared trees as built by CBT / sparse-mode PIM
  (:mod:`repro.routing.shared`),
* TTL scoping semantics — decrement, then drop below the configured
  threshold — exposed as vectorised "minimum required TTL" matrices
  (:mod:`repro.routing.scoping`).
"""

from repro.routing.admin_scoping import (
    AdminScopeMap,
    ScopeZone,
    zones_from_labels,
)
from repro.routing.dvmrp import DvmrpRouter, DvmrpRoutingTable
from repro.routing.forwarding import ForwardedPacket, ForwardingEngine
from repro.routing.scoping import ScopeMap
from repro.routing.shared import SharedTree
from repro.routing.spt import ShortestPathForest, ShortestPathTree

__all__ = [
    "AdminScopeMap",
    "DvmrpRouter",
    "DvmrpRoutingTable",
    "ForwardedPacket",
    "ForwardingEngine",
    "ScopeMap",
    "ScopeZone",
    "SharedTree",
    "ShortestPathForest",
    "ShortestPathTree",
    "zones_from_labels",
]
