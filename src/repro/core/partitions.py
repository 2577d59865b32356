"""TTL partition maps (paper §2.1, §2.4.1, fig. 11).

A partition map assigns every TTL value 1..255 to a band.  Static
IPRMA uses a handful of hand-placed bands (3-band: separators at TTL 15
and 64; 7-band: separators at 2, 16, 32, 48, 64 and 128).  The adaptive
schemes need a partitioning that works for *any* boundary policy; the
paper derives one from hop-count structure: the number of TTL values
``n`` allocated to a partition whose lowest TTL is ``t``, with a margin
of safety ``m``, is::

    n = ceil( 32 * t / (255 * m) )

(32 being the DVMRP infinite routing metric).  A margin of 2 yields 55
partitions — one per TTL at the bottom of the range, widening towards
TTL 255 (fig. 11).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

#: Separator TTLs for the paper's static 3-band IPRMA.
IPR3_EDGES: Tuple[int, ...] = (15, 64)
#: Separator TTLs for the paper's static 7-band IPRMA.
IPR7_EDGES: Tuple[int, ...] = (2, 16, 32, 48, 64, 128)
#: DVMRP's infinite routing metric, the hop-count ceiling of §2.4.1.
DVMRP_INFINITY = 32
#: Largest TTL value.
MAX_TTL = 255


@dataclass(frozen=True)
class PartitionMap:
    """Maps TTL values to band indices.

    Bands are numbered from 0 (lowest TTLs) upwards.  ``edges`` holds
    the separator TTLs: a TTL ``t`` belongs to band
    ``bisect_right(edges, t)``, i.e. band *i* covers TTLs in
    ``[edges[i-1], edges[i])`` with the conventional open ends.
    """

    edges: Tuple[int, ...]
    _band_table: np.ndarray = field(init=False, repr=False, compare=False)
    #: ``min_ttl`` -> the zeros of the bands below it and the TTLs at
    #: which :meth:`fold_ttl_counts` starts each other band's sum,
    #: filled on first use.
    _fold_starts: Dict[int, Tuple[List[int], np.ndarray]] = field(
        init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self) -> None:
        if list(self.edges) != sorted(set(self.edges)):
            raise ValueError(f"edges must be strictly increasing: "
                             f"{self.edges}")
        if self.edges and not (1 < self.edges[0] and
                               self.edges[-1] <= MAX_TTL):
            raise ValueError(f"edges must lie in (1, 255]: {self.edges}")
        # Band of every TTL 0..255.  The edges lie in (1, 255], so a
        # TTL below 0 shares TTL 0's band and one above 255 shares
        # TTL 255's: clipping into the table is exact for any integer.
        # ``take(..., mode="clip")`` clips the indices to 0..255 itself,
        # at a tenth of the cost of a separate ``np.clip``.
        table = np.searchsorted(np.asarray(self.edges, dtype=np.int64),
                                np.arange(MAX_TTL + 1), side="right")
        object.__setattr__(self, "_band_table", table)

    @property
    def num_bands(self) -> int:
        return len(self.edges) + 1

    def band_of(self, ttl) -> "np.ndarray | int":
        """Band index for a TTL (integer scalar or integer array)."""
        if isinstance(ttl, (int, np.integer)):
            return bisect_right(self.edges, ttl)
        return self._band_table.take(ttl, mode="clip")

    def ttl_range(self, band: int) -> Tuple[int, int]:
        """Inclusive TTL range ``(lo, hi)`` covered by ``band``."""
        if not 0 <= band < self.num_bands:
            raise IndexError(f"band {band} out of {self.num_bands}")
        lo = 1 if band == 0 else self.edges[band - 1]
        hi = MAX_TTL if band == len(self.edges) else self.edges[band] - 1
        return lo, hi

    def band_counts(self, ttls: np.ndarray) -> np.ndarray:
        """Number of the given TTLs in each band (length num_bands)."""
        bands = self.band_of(np.asarray(ttls))
        return np.bincount(bands, minlength=self.num_bands)

    def fold_ttl_counts(self, per_ttl: np.ndarray,
                        min_ttl: int) -> List[int]:
        """Band totals of a count per TTL, from ``min_ttl`` up.

        Args:
            per_ttl: ``per_ttl[t]`` sessions of TTL ``t``, for t in
                0..255.
            min_ttl: TTLs below this are left out of the totals.

        Returns:
            One total per band, lowest band first: what
            :meth:`band_counts` returns for the TTLs >= ``min_ttl``.
            The sums are taken in ``per_ttl``'s dtype, which is exact
            while the total of ``per_ttl`` fits it, and twice as fast
            as widening a strided column first.
        """
        fold = self._fold_starts.get(min_ttl)
        if fold is None:
            first = self.band_of(min_ttl)
            fold = ([0] * first,
                    np.array((min_ttl,) + self.edges[first:], dtype=np.intp))
            self._fold_starts[min_ttl] = fold
        zeros, starts = fold
        return zeros + np.add.reduceat(per_ttl, starts,
                                       dtype=per_ttl.dtype).tolist()


def margin_partition_map(margin: int = 2) -> PartitionMap:
    """The §2.4.1 partitioning rule: works for any boundary policy.

    Args:
        margin: the margin of safety ``m``; 2 gives the paper's 55
            partitions.
    """
    if margin < 1:
        raise ValueError(f"margin must be >= 1, got {margin}")
    edges: List[int] = []
    t = 1
    while True:
        width = max(1, math.ceil(DVMRP_INFINITY * t / (MAX_TTL * margin)))
        nxt = t + width
        if nxt > MAX_TTL:
            break
        edges.append(nxt)
        t = nxt
    return PartitionMap(tuple(edges))


def equal_band_ranges(space_size: int,
                      num_bands: int) -> List[Tuple[int, int]]:
    """Divide an address space into equal half-open ranges.

    Returns ``[(lo, hi), ...]`` with ``hi`` exclusive, one per band,
    covering the space exactly (earlier bands get the remainder).
    """
    if num_bands <= 0:
        raise ValueError("num_bands must be positive")
    if space_size < num_bands:
        raise ValueError(
            f"space of {space_size} cannot hold {num_bands} bands"
        )
    base = space_size // num_bands
    remainder = space_size % num_bands
    ranges: List[Tuple[int, int]] = []
    lo = 0
    for band in range(num_bands):
        width = base + (1 if band < remainder else 0)
        ranges.append((lo, lo + width))
        lo += width
    return ranges
