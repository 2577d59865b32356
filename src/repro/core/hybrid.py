"""AIPR-H — the hybrid of static IPR-7 and adaptive AIPR-1 (fig. 12).

From the paper: "It has 7 bands as in IPR-7.  These bands are initially
positioned so that they occupy the top 50% of the address space with
20% of the space being used for inter-band gaps.  When a high TTL band
expands, it pushes downwards, but the band below it does not move
downwards unless the occupancy is greater than 67%.  If the occupancy
is less than 67% the band is reduced in width."

Concrete realisation: each band has a precomputed *initial* range.  Lay
bands out top-down; a band's top is the lower of its initial top and
the point the band above pushed it to.  An unpushed band keeps its
initial width (grown if needed); a pushed band shrinks to the width its
session count needs at 67% occupancy.
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.adaptive import DEFAULT_OCCUPANCY
from repro.core.allocator import AllocationResult, AllocationView, Allocator
from repro.core.partitions import IPR7_EDGES, PartitionMap


class HybridIprmaAllocator(Allocator):
    """AIPR-H: statically seeded, adaptively resized 7-band allocation.

    Args:
        space_size: total addresses.
        gap_fraction: share of the space used for inter-band gaps (20%
            in the paper's AIPR-H).
        initial_span: share of the space the initial layout occupies
            from the top (50% in the paper).
        edges: band separator TTLs (IPR-7's by default).
        occupancy: target band occupancy (67%).
        rng: numpy Generator.
    """

    name = "AIPR-H"

    def __init__(self, space_size: int, gap_fraction: float = 0.2,
                 initial_span: float = 0.5,
                 edges: Sequence[int] = IPR7_EDGES,
                 occupancy: float = DEFAULT_OCCUPANCY,
                 *, rng: np.random.Generator) -> None:
        super().__init__(space_size, rng)
        if not 0.0 <= gap_fraction < initial_span <= 1.0:
            raise ValueError(
                f"need 0 <= gap_fraction < initial_span <= 1, got "
                f"{gap_fraction} and {initial_span}"
            )
        self.gap_fraction = gap_fraction
        self.initial_span = initial_span
        self.occupancy = occupancy
        self.partition_map = PartitionMap(tuple(edges))
        num_bands = self.partition_map.num_bands
        #: The lowest TTL of each band.
        self._band_floor = (1,) + self.partition_map.edges
        self.gap = int(gap_fraction * space_size) // num_bands
        width_budget = int(initial_span * space_size) - self.gap * num_bands
        self.initial_width = max(1, width_budget // num_bands)
        # Initial tops, highest-TTL band at the very top of the space.
        self.initial_top: List[int] = [0] * num_bands
        position = space_size
        for band in range(num_bands - 1, -1, -1):
            self.initial_top[band] = max(1, position)
            position = position - self.initial_width - self.gap

    def band_geometry(self, visible: AllocationView,
                      min_ttl: int = 1) -> List[Tuple[int, int]]:
        """Half-open (lo, hi) per band under the hybrid rules, counting
        the visible sessions with TTL >= ``min_ttl``."""
        counts = visible.band_counts(self.partition_map, min_ttl)
        num_bands = self.partition_map.num_bands
        ranges: List[Optional[Tuple[int, int]]] = [None] * num_bands
        prev_lo = self.space_size + self.gap
        for band in range(num_bands - 1, -1, -1):
            needed = max(1, math.ceil(counts[band] / self.occupancy))
            hi = max(1, min(self.initial_top[band], prev_lo - self.gap))
            pushed = hi < self.initial_top[band]
            width = needed if pushed else max(needed, self.initial_width)
            lo = max(0, hi - width)
            ranges[band] = (lo, hi)
            prev_lo = lo
        return ranges  # type: ignore[return-value]

    def _band_range(self, ttl: int,
                    visible: AllocationView) -> Tuple[int, int, int]:
        """The band serving ``ttl`` and its half-open range:
        ``band_geometry(visible, floor)[band]`` for the band's lowest
        TTL ``floor``, laid out top-down as far as that band only."""
        occupancy, gap = self.occupancy, self.gap
        initial_top, initial_width = self.initial_top, self.initial_width
        band = self.partition_map.band_of(ttl)
        counts = visible.band_counts(self.partition_map,
                                     self._band_floor[band])
        lo = self.space_size + gap
        for above in range(len(counts) - 1, band - 1, -1):
            needed = max(1, math.ceil(counts[above] / occupancy))
            hi = max(1, min(initial_top[above], lo - gap))
            if hi == initial_top[above]:
                needed = max(needed, initial_width)
            lo = max(0, hi - needed)
        return band, lo, hi

    def declared_ranges(self, ttl: int,
                        visible: AllocationView) -> List[Tuple[int, int]]:
        """The band serving ``ttl`` under the hybrid geometry."""
        __, lo, hi = self._band_range(ttl, visible)
        return [(lo, hi)]

    def allocate(self, ttl: int,
                 visible: AllocationView) -> AllocationResult:
        self._check_ttl(ttl)
        band, lo, hi = self._band_range(ttl, visible)
        return self._informed_pick(visible, lo, hi, band)
