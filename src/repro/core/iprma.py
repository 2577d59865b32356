"""Static IPRMA — Informed Partitioned Random allocation (paper §2.1).

The address space is pre-divided into equal ranges, one per TTL band
(fig. 1).  A session's TTL selects the band (fig. 2); within the band
the choice is informed-random.  Partitioning stops a *global* session
clashing with a *local* session elsewhere — provided the band edges
match the TTL boundaries actually deployed.  The paper's two variants:

* ``IPR 3-band`` — separators at TTL 15 and 64.  Europe-wide (TTL 63)
  and UK-only (TTL 47) sessions share a band, so a Scandinavian site
  can clash with an invisible UK session (fig. 3) — imperfect
  partitioning.
* ``IPR 7-band`` — separators at 2, 16, 32, 48, 64, 128; perfect for
  the paper's TTL distributions, as no two TTL values share a band.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from repro.core.allocator import AllocationResult, AllocationView, Allocator
from repro.core.partitions import (
    IPR3_EDGES,
    IPR7_EDGES,
    PartitionMap,
    equal_band_ranges,
)


class StaticIprmaAllocator(Allocator):
    """Informed random within fixed, equal-sized TTL bands.

    Args:
        space_size: total addresses.
        edges: separator TTLs defining the bands.
        rng: numpy Generator.
    """

    def __init__(self, space_size: int,
                 edges: Sequence[int] = IPR3_EDGES,
                 *, rng: np.random.Generator) -> None:
        super().__init__(space_size, rng)
        self.partition_map = PartitionMap(tuple(edges))
        self.band_ranges: List[Tuple[int, int]] = equal_band_ranges(
            space_size, self.partition_map.num_bands
        )
        self.name = f"IPR {self.partition_map.num_bands}-band"

    @classmethod
    def three_band(cls, space_size: int,
                   rng: np.random.Generator) -> "StaticIprmaAllocator":
        """The paper's IPR 3-band (separators at TTL 15 and 64)."""
        return cls(space_size, IPR3_EDGES, rng=rng)

    @classmethod
    def seven_band(cls, space_size: int,
                   rng: np.random.Generator) -> "StaticIprmaAllocator":
        """The paper's IPR 7-band (2, 16, 32, 48, 64, 128)."""
        return cls(space_size, IPR7_EDGES, rng=rng)

    def band_range(self, ttl: int) -> Tuple[int, int]:
        """Half-open address range of the band serving ``ttl``."""
        return self.band_ranges[self.partition_map.band_of(ttl)]

    def declared_ranges(self, ttl: int,
                        visible: AllocationView) -> List[Tuple[int, int]]:
        """Static bands: the range serving ``ttl``, whatever is visible."""
        return [self.band_range(ttl)]

    def allocate(self, ttl: int, visible: AllocationView) -> AllocationResult:
        self._check_ttl(ttl)
        band = self.partition_map.band_of(ttl)
        lo, hi = self.band_ranges[band]
        return self._informed_pick(visible, lo, hi, band=band)
