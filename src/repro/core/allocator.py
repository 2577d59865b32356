"""Allocator interface and shared helpers.

An allocator runs at one site.  Its entire knowledge of the world is
the set of sessions *visible* there — those whose SAP announcements
reach the site (scope-limited, possibly delayed or lost).  Given that
view and a requested TTL it picks a group address.

All algorithms share this contract, which is what lets the simulation
harnesses of figs. 5/12/13 swap them freely.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import List, Optional, Protocol, Tuple

import numpy as np

from repro.core.partitions import PartitionMap
from repro.sim.rng import derived_stream
from repro.sim.types import Count, SlotIndex, Ttl


class AllocationView(Protocol):
    """What an allocator may ask of the sessions visible at its site.

    An allocator's whole knowledge of the world is the set of sessions
    whose announcements reach it.  It asks that set three questions,
    and these are the only ones: which addresses of a range it sees in
    use, how many visible sessions each band of a partition map holds,
    and how many sessions it sees in all.  :class:`VisibleSet` answers
    them from arrays of (address, ttl) pairs; the allocation
    experiments' world answers them from per-node count tables
    (:class:`repro.experiments.world.OccupancyView`).
    """

    def __len__(self) -> int:
        """Number of visible sessions."""

    def free_offsets(self, lo: SlotIndex, hi: SlotIndex) -> np.ndarray:
        """Ascending offsets from ``lo`` of the addresses of
        ``[lo, hi)`` that no visible session uses."""

    def band_counts(self, partition_map: PartitionMap,
                    min_ttl: Ttl) -> List[int]:
        """Visible sessions per band of ``partition_map``, counting only
        sessions with TTL >= ``min_ttl``."""


@dataclass
class VisibleSet:
    """The (address, ttl) pairs of sessions visible at a site.

    Stored as parallel numpy arrays; an unordered multiset, since two
    visible sessions may share an address.  Implements
    :class:`AllocationView`.
    """

    addresses: np.ndarray
    ttls: np.ndarray

    def __post_init__(self) -> None:
        self.addresses = np.asarray(self.addresses, dtype=np.int64)
        self.ttls = np.asarray(self.ttls, dtype=np.int64)
        if self.addresses.shape != self.ttls.shape:
            raise ValueError("addresses and ttls must align")

    @classmethod
    def empty(cls) -> "VisibleSet":
        return cls(np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64))

    def __len__(self) -> int:
        return int(self.addresses.shape[0])

    def free_offsets(self, lo: SlotIndex, hi: SlotIndex) -> np.ndarray:
        """The unmarked slots of one bool array over ``[lo, hi)``."""
        addresses = self.addresses
        occupied = np.zeros(hi - lo, dtype=bool)
        occupied[addresses[(addresses >= lo) & (addresses < hi)] - lo] = True
        return (~occupied).nonzero()[0]

    def band_counts(self, partition_map: PartitionMap,
                    min_ttl: Ttl) -> List[int]:
        ttls = self.ttls
        return partition_map.band_counts(ttls[ttls >= min_ttl]).tolist()


@dataclass(frozen=True)
class AllocationResult:
    """Outcome of one allocation.

    Attributes:
        address: the chosen address (index into the space).
        band: band index the allocator used, if partitioned.
        informed: True if known-used addresses were excluded.
        forced: True if no free address was known and the allocator had
            to pick among possibly-used ones (a likely clash).
    """

    address: SlotIndex
    band: Optional[int] = None
    informed: bool = True
    forced: bool = False


class Allocator(abc.ABC):
    """Base class for all allocation algorithms.

    Args:
        space_size: number of addresses in the allocation space.
        rng: numpy Generator; a fresh default one is made if omitted.
    """

    #: short name used in experiment output ("R", "IR", "IPR 3-band"...)
    name: str = "base"

    def __init__(self, space_size: Count,
                 rng: Optional[np.random.Generator] = None) -> None:
        if space_size <= 0:
            raise ValueError(f"space_size must be positive: {space_size}")
        self.space_size = int(space_size)
        self.rng = rng if rng is not None else derived_stream(
            "core.allocator"
        )
        self.forced_allocations = 0

    @abc.abstractmethod
    def allocate(self, ttl: Ttl,
                 visible: AllocationView) -> AllocationResult:
        """Pick an address for a new session with scope ``ttl``."""

    def declared_ranges(self, ttl: Ttl,
                        visible: AllocationView
                        ) -> List[Tuple[SlotIndex, SlotIndex]]:
        """The half-open address ranges ``allocate`` may pick from.

        This is the allocator's *declared* partition geometry for a
        ``(ttl, visible)`` view — the contract the runtime sanitizer
        (:mod:`repro.sanitize`) checks every allocation against.
        Partitioned allocators override this to mirror exactly the
        band/zone/prefix computation their ``allocate`` performs.
        """
        return [(0, self.space_size)]

    def _check_ttl(self, ttl: Ttl) -> None:
        if not 1 <= ttl <= 255:
            raise ValueError(f"ttl {ttl} outside [1, 255]")

    def _informed_pick(self, visible: AllocationView, lo: SlotIndex,
                       hi: SlotIndex,
                       band: Optional[int] = None) -> AllocationResult:
        """Informed-random choice within ``[lo, hi)``.

        Avoids every address visible in the range; if the range is
        fully occupied (as far as this site knows), falls back to a
        uniform pick — the allocation still has to happen, the paper's
        simulations then count the resulting clash.

        A uniform rank ``r`` among the view's free offsets picks the
        ``r``-th free address, the one :func:`nth_free_address` would
        return for the sorted used set.
        """
        free = visible.free_offsets(lo, hi)
        if len(free) == 0:
            self.forced_allocations += 1
            address = int(self.rng.integers(lo, hi))
            return AllocationResult(address, band=band, informed=False,
                                    forced=True)
        r = int(self.rng.integers(0, len(free)))
        return AllocationResult(lo + int(free[r]), band=band,
                                informed=True, forced=False)


def nth_free_address(used_sorted: np.ndarray, r: Count, lo: SlotIndex,
                     hi: SlotIndex) -> SlotIndex:
    """The ``r``-th (0-based) address of ``[lo, hi)`` not in use.

    Args:
        used_sorted: sorted unique used addresses, all within [lo, hi).
        r: rank among free addresses; must satisfy
            ``0 <= r < (hi - lo) - len(used_sorted)``.

    Uses fixed-point iteration on ``x = lo + r + #used <= x``; the
    candidate is non-decreasing, so it terminates in at most
    ``len(used_sorted)`` steps (typically 2-3).
    """
    free_total = (hi - lo) - len(used_sorted)
    if not 0 <= r < free_total:
        raise ValueError(f"rank {r} outside free count {free_total}")
    x = lo + r
    while True:
        skipped = int(np.searchsorted(used_sorted, x, side="right"))
        candidate = lo + r + skipped
        if candidate == x:
            return x
        x = candidate
