"""The original adaptive IPRMA (paper §2.4, fig. 7) — before the fix.

"Initially the address range is divided into even sized partitions...
As some of the partitions start to become densely occupied whilst
others are sparsely occupied, it is necessary to adapt the size of the
partitions."  Fig. 7 sketches two options; both size a band from the
sessions observed in it and reclaim space from its neighbours.

The scheme's documented failure modes (§2.4, "Deterministic Adaptive
Address Space Partitioning"):

* a band's geometry depends on *lower*-TTL session counts, which
  differ between sites (lower-TTL sessions are invisible outside their
  scope), so "a densely packed partition may expand at one site to
  overlap a lower TTL partition at another site";
* hence "clashes occurring between new sessions in the more widely
  scoped range and existing sessions in the less widely scoped range".

We implement both fig. 7 options so the failure can be measured
against the deterministic variant (see
``benchmarks/test_ablation_deterministic.py``):

* ``mode="push"`` — bands keep their order and are resized in place,
  each taking width proportional to its occupancy target, anchored at
  the bottom of the space (fig. 7's first option);
* ``mode="proportional"`` — the whole space is re-divided with band
  widths proportional to (count + 1) (fig. 7's second option).

Both compute geometry from **all** visible sessions — including
lower-TTL ones — which is exactly the property the deterministic
variant removes.
"""

from __future__ import annotations

import math
from typing import List, Sequence, Tuple

import numpy as np

from repro.core.adaptive import DEFAULT_OCCUPANCY
from repro.core.allocator import AllocationResult, AllocationView, Allocator
from repro.core.partitions import IPR7_EDGES, PartitionMap

_MODES = ("push", "proportional")


class LegacyAdaptiveIprmaAllocator(Allocator):
    """Fig. 7's adaptive IPRMA, with its cross-scope failure modes.

    Args:
        space_size: total addresses.
        mode: "push" or "proportional" (the two fig. 7 options).
        edges: band separator TTLs.
        occupancy: target band occupancy for "push" sizing.
        rng: numpy Generator.
    """

    def __init__(self, space_size: int, mode: str = "push",
                 edges: Sequence[int] = IPR7_EDGES,
                 occupancy: float = DEFAULT_OCCUPANCY,
                 *, rng: np.random.Generator) -> None:
        super().__init__(space_size, rng)
        if mode not in _MODES:
            raise ValueError(f"mode must be one of {_MODES}: {mode!r}")
        self.mode = mode
        self.occupancy = occupancy
        self.partition_map = PartitionMap(tuple(edges))
        self.name = f"Adaptive-legacy ({mode})"

    def band_geometry(self,
                      visible: AllocationView) -> List[Tuple[int, int]]:
        """Half-open (lo, hi) per band — a function of ALL visible
        sessions, lower TTLs included (the flaw under test)."""
        counts = visible.band_counts(self.partition_map, 1)
        if self.mode == "push":
            return self._push_geometry(counts)
        return self._proportional_geometry(counts)

    def _push_geometry(self, counts: List[int]) -> List[Tuple[int, int]]:
        """Bands sized by occupancy, laid out bottom-up in TTL order.

        A growing band pushes every higher band upwards; bands at the
        top get squeezed when the space runs out.
        """
        num_bands = self.partition_map.num_bands
        base = self.space_size // num_bands
        ranges: List[Tuple[int, int]] = []
        position = 0
        for band in range(num_bands):
            needed = max(base, math.ceil(counts[band] / self.occupancy))
            lo = min(position, self.space_size - 1)
            hi = min(self.space_size, lo + needed)
            if hi <= lo:
                lo, hi = self.space_size - 1, self.space_size
            ranges.append((lo, hi))
            position = hi
        return ranges

    def _proportional_geometry(self,
                               counts: List[int]) -> List[Tuple[int, int]]:
        """The whole space re-divided with widths ~ (count + 1)."""
        weights = np.asarray(counts, dtype=np.float64) + 1.0
        total = weights.sum()
        ranges: List[Tuple[int, int]] = []
        position = 0
        for band, weight in enumerate(weights):
            if band == len(weights) - 1:
                hi = self.space_size
            else:
                width = max(1, int(round(
                    self.space_size * weight / total
                )))
                hi = min(self.space_size, position + width)
            lo = min(position, self.space_size - 1)
            hi = max(hi, lo + 1)
            ranges.append((lo, min(hi, self.space_size)))
            position = ranges[-1][1]
        return ranges

    def allocate(self, ttl: int,
                 visible: AllocationView) -> AllocationResult:
        self._check_ttl(ttl)
        band = self.partition_map.band_of(ttl)
        lo, hi = self.band_geometry(visible)[band]
        return self._informed_pick(visible, lo, hi, band=band)
