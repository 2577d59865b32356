"""repro — Session Directories and Scalable Internet Multicast Address
Allocation (Handley, SIGCOMM 1998), reproduced as a Python library.

Layout:

* :mod:`repro.core` — the allocation algorithms (R, IR, static IPRMA,
  adaptive/deterministic-adaptive IPRMA, AIPR-H, hierarchical prefix
  allocation) plus address spaces, sessions and clash detection.
* :mod:`repro.analysis` — the paper's closed-form models (birthday
  curve, eq. 1 clash model, §2.3 announcement arithmetic, eq. 2/4
  responder bounds).
* :mod:`repro.topology` — the synthetic Mbone map, the Doar-style
  generator, hop-count analysis.
* :mod:`repro.routing` — DVMRP shortest-path trees, shared trees, TTL
  scoping.
* :mod:`repro.sim` — discrete-event kernel and the lossy multicast
  network model.
* :mod:`repro.sap` — the session directory: SDP, SAP announcements,
  caches, announcement strategies, the three-phase clash protocol.
* :mod:`repro.experiments` — harnesses regenerating every figure and
  table in the paper's evaluation.
"""

from repro.core import (
    AdaptiveIprmaAllocator,
    Allocator,
    HierarchicalAllocator,
    HybridIprmaAllocator,
    InformedRandomAllocator,
    MulticastAddressSpace,
    PrefixPool,
    RandomAllocator,
    Session,
    StaticIprmaAllocator,
)
from repro.routing import ScopeMap
from repro.sap import SessionDirectory
from repro.sim import EventScheduler, NetworkModel
from repro.topology import Topology, generate_doar, generate_mbone

__version__ = "1.0.0"

__all__ = [
    "AdaptiveIprmaAllocator",
    "Allocator",
    "EventScheduler",
    "HierarchicalAllocator",
    "HybridIprmaAllocator",
    "InformedRandomAllocator",
    "MulticastAddressSpace",
    "NetworkModel",
    "PrefixPool",
    "RandomAllocator",
    "ScopeMap",
    "Session",
    "SessionDirectory",
    "StaticIprmaAllocator",
    "Topology",
    "generate_doar",
    "generate_mbone",
    "__version__",
]
