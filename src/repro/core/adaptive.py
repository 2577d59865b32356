"""Deterministic Adaptive IPRMA (paper §2.4, fig. 8; AIPR-1..4).

Static partitions waste space: "some partitions may be virtually empty,
and others will be densely occupied".  The adaptive scheme sizes each
band by the sessions actually observed in it, placing bands from the
top of the address space downwards — higher-TTL bands first, expanding
bands "pushing" lower-TTL bands down — with gaps between bands to
absorb allocation bursts without collision.

The *deterministic* property: the geometry of the band serving TTL
``x`` depends only on session announcements with TTL >= x (which, with
a reliable announcement protocol, every site able to clash at TTL x can
see).  Placing bands top-down in decreasing TTL order gives exactly
this: a band's position is a function of the counts in itself and in
higher-TTL bands only.

Concrete realisation of the fig. 12 parameters:

* bands are rectangular (uniform probability within the band);
* a fraction ``gap_fraction`` of the space is evenly allocated to
  inter-band spacing (AIPR-1: 20%, AIPR-2: 50%, AIPR-3: 60%,
  AIPR-4: 70%);
* target band occupancy is 67% (from fig. 6);
* the initial band allocation gives a single address to each band
  (``max(1, ...)`` below).
"""

from __future__ import annotations

import math
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocator import AllocationResult, AllocationView, Allocator
from repro.core.partitions import IPR7_EDGES, PartitionMap

#: Target band occupancy; "67% was chosen from figure 6 as approximately
#: the proportion ... that can be allocated for a band of 10000
#: addresses before propagation delay and loss alone increase the clash
#: probability to 0.5".
DEFAULT_OCCUPANCY = 0.67


class AdaptiveIprmaAllocator(Allocator):
    """Deterministic adaptive informed-partitioned-random allocation.

    Args:
        space_size: total addresses.
        gap_fraction: share of the space reserved for inter-band gaps.
        edges: separator TTLs defining bands (default: the 7-band
            edges, which isolate each TTL of the paper's distributions;
            use :func:`repro.core.partitions.margin_partition_map` for
            the any-policy 55-band map).
        occupancy: target band occupancy.
        rng: numpy Generator.
    """

    def __init__(self, space_size: int, gap_fraction: float = 0.2,
                 edges: Sequence[int] = IPR7_EDGES,
                 occupancy: float = DEFAULT_OCCUPANCY,
                 *, rng: np.random.Generator) -> None:
        super().__init__(space_size, rng)
        if not 0.0 <= gap_fraction < 1.0:
            raise ValueError(f"gap_fraction outside [0, 1): {gap_fraction}")
        if not 0.0 < occupancy <= 1.0:
            raise ValueError(f"occupancy outside (0, 1]: {occupancy}")
        self.gap_fraction = gap_fraction
        self.occupancy = occupancy
        self.partition_map = PartitionMap(tuple(edges))
        #: Addresses left free below each band.
        self.gap = (int(gap_fraction * space_size)
                    // self.partition_map.num_bands)
        #: The lowest TTL of each band.
        self._band_floor = (1,) + self.partition_map.edges
        self.name = f"AIPR ({gap_fraction:.0%} gap)"

    # Factories matching the paper's labels -----------------------------
    @classmethod
    def aipr1(cls, space_size: int,
              rng: np.random.Generator) -> "AdaptiveIprmaAllocator":
        return cls(space_size, gap_fraction=0.2, rng=rng)

    @classmethod
    def aipr2(cls, space_size: int,
              rng: np.random.Generator) -> "AdaptiveIprmaAllocator":
        return cls(space_size, gap_fraction=0.5, rng=rng)

    @classmethod
    def aipr3(cls, space_size: int,
              rng: np.random.Generator) -> "AdaptiveIprmaAllocator":
        return cls(space_size, gap_fraction=0.6, rng=rng)

    @classmethod
    def aipr4(cls, space_size: int,
              rng: np.random.Generator) -> "AdaptiveIprmaAllocator":
        return cls(space_size, gap_fraction=0.7, rng=rng)

    # -------------------------------------------------------------------
    def band_geometry(self, visible: AllocationView,
                      min_ttl: int = 1) -> List[Tuple[int, int]]:
        """Half-open (lo, hi) address range of every band, low band first.

        Bands cluster at the top of the space; band *i*'s geometry is a
        function of the visible session counts in bands >= i only.
        Sessions with TTL below ``min_ttl`` are left out of the counts.
        """
        counts = visible.band_counts(self.partition_map, min_ttl)
        num_bands = self.partition_map.num_bands
        ranges: List[Optional[Tuple[int, int]]] = [None] * num_bands
        position = self.space_size  # exclusive top of the next band
        for band in range(num_bands - 1, -1, -1):
            size = max(1, math.ceil(counts[band] / self.occupancy))
            hi = max(1, position)
            lo = max(0, hi - size)
            ranges[band] = (lo, hi)
            position = lo - self.gap
        return ranges  # type: ignore[return-value]

    def _band_range(self, ttl: int,
                    visible: AllocationView) -> Tuple[int, int, int]:
        """The band serving ``ttl`` and its half-open range.

        The range is ``band_geometry(visible, floor)[band]`` for the
        band's lowest TTL ``floor`` (the deterministic rule: only
        sessions of TTL >= floor count), in closed form.  The band's
        top is the space less the size and gap of each band above it,
        clamped to 1; its bottom is its top less its size, clamped to
        0.  The clamps of the bands above change nothing: once a top is
        clamped to 1 or a bottom to 0, every lower band's top is 1, as
        the clamped closed form gives.
        """
        occupancy, gap = self.occupancy, self.gap
        band = self.partition_map.band_of(ttl)
        counts = visible.band_counts(self.partition_map,
                                     self._band_floor[band])
        top = self.space_size
        for count in counts[band + 1:]:
            top -= max(1, math.ceil(count / occupancy)) + gap
        hi = max(1, top)
        lo = max(0, hi - max(1, math.ceil(counts[band] / occupancy)))
        return band, lo, hi

    def declared_ranges(self, ttl: int,
                        visible: AllocationView) -> List[Tuple[int, int]]:
        """The band serving ``ttl`` under the deterministic geometry."""
        __, lo, hi = self._band_range(ttl, visible)
        return [(lo, hi)]

    def allocate(self, ttl: int,
                 visible: AllocationView) -> AllocationResult:
        self._check_ttl(ttl)
        band, lo, hi = self._band_range(ttl, visible)
        return self._informed_pick(visible, lo, hi, band)
