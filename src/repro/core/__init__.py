"""The paper's primary contribution: multicast address allocation.

Algorithms (paper §2):

* :class:`~repro.core.random_alloc.RandomAllocator` — "R", pure random.
* :class:`~repro.core.informed.InformedRandomAllocator` — "IR",
  avoids addresses seen in session announcements.
* :class:`~repro.core.iprma.StaticIprmaAllocator` — "IPR k-band",
  Informed Partitioned Random with static TTL bands (fig. 1/2).
* :class:`~repro.core.adaptive.AdaptiveIprmaAllocator` — Deterministic
  Adaptive IPRMA (fig. 8), the AIPR-1..4 family of figs. 12/13.
* :class:`~repro.core.hybrid.HybridIprmaAllocator` — AIPR-H.
* :class:`~repro.core.hierarchy.HierarchicalAllocator` — the two-level
  prefix scheme the paper proposes in §4.1.
"""

from repro.core.address_space import MulticastAddressSpace
from repro.core.adaptive import AdaptiveIprmaAllocator
from repro.core.adaptive_legacy import LegacyAdaptiveIprmaAllocator
from repro.core.admin import AdminScopedAllocator
from repro.core.allocator import (
    AllocationResult,
    AllocationView,
    Allocator,
    nth_free_address,
)
from repro.core.clash import find_clashing_pairs
from repro.core.hierarchy import HierarchicalAllocator, PrefixPool
from repro.core.hybrid import HybridIprmaAllocator
from repro.core.informed import InformedRandomAllocator
from repro.core.iprma import StaticIprmaAllocator
from repro.core.partitions import (
    PartitionMap,
    equal_band_ranges,
    margin_partition_map,
)
from repro.core.random_alloc import RandomAllocator
from repro.core.session import Session

__all__ = [
    "AdaptiveIprmaAllocator",
    "AdminScopedAllocator",
    "LegacyAdaptiveIprmaAllocator",
    "AllocationResult",
    "AllocationView",
    "Allocator",
    "HierarchicalAllocator",
    "HybridIprmaAllocator",
    "InformedRandomAllocator",
    "MulticastAddressSpace",
    "PartitionMap",
    "PrefixPool",
    "RandomAllocator",
    "Session",
    "StaticIprmaAllocator",
    "equal_band_ranges",
    "find_clashing_pairs",
    "margin_partition_map",
    "nth_free_address",
]
