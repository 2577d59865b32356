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
from typing import List, NamedTuple, Optional, Protocol, Tuple

import numpy as np

from repro.core.partitions import MAX_TTL, PartitionMap
from repro.sim.types import Count, SlotIndex, Ttl


class AllocationView(Protocol):
    """What an allocator may ask of the sessions visible at its site.

    An allocator's whole knowledge of the world is the set of sessions
    whose announcements reach it.  It asks that set three questions,
    and these are the only ones: which addresses of a range it sees in
    use, how many visible sessions each band of a partition map holds,
    and how many sessions it sees in all.  :class:`OccupancyView`
    answers all three from a count per address and a count per TTL;
    the allocation experiments' world and every SAP directory keep
    such counts live, so handing an allocator its view copies nothing.
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


class OccupancyView:
    """Counts of the sessions visible at a site, by address and by TTL.

    An :class:`AllocationView`: an address is in use, as far as the
    site knows, when its count is nonzero.  The view reads the arrays
    it is given, not a copy, so it follows every change to them.  The
    allocation world hands out a view over one node's column of its
    tables; a SAP directory keeps one view live through :meth:`add`.
    """

    __slots__ = ("_address_counts", "_ttl_counts")

    def __init__(self, address_counts: np.ndarray,
                 ttl_counts: np.ndarray) -> None:
        self._address_counts = address_counts
        self._ttl_counts = ttl_counts

    @classmethod
    def from_pairs(cls, addresses, ttls,
                   space_size: Count) -> "OccupancyView":
        """A view of the sessions with these (address, ttl) pairs.

        The counts are int32 arrays of their own, over ``space_size``
        addresses and the TTLs 0..255.

        Raises:
            ValueError: if the two sequences differ in length, an
                address lies outside ``[0, space_size)`` or a TTL
                outside 1..255.
        """
        addresses = np.asarray(addresses, dtype=np.int64)
        ttls = np.asarray(ttls, dtype=np.int64)
        if addresses.shape != ttls.shape:
            raise ValueError("addresses and ttls must align")
        if addresses.size and not (0 <= addresses.min()
                                   and addresses.max() < space_size):
            raise ValueError(f"an address lies outside [0, {space_size})")
        if ttls.size and not (1 <= ttls.min() and ttls.max() <= MAX_TTL):
            raise ValueError(f"a TTL lies outside [1, {MAX_TTL}]")
        return cls(
            np.bincount(addresses, minlength=space_size).astype(np.int32),
            np.bincount(ttls, minlength=MAX_TTL + 1).astype(np.int32))

    def __len__(self) -> int:
        return int(self._ttl_counts.sum())

    def free_offsets(self, lo: SlotIndex, hi: SlotIndex) -> np.ndarray:
        """Offsets from ``lo`` of the addresses of ``[lo, hi)`` that no
        session heard here uses; ``[lo, hi)`` must lie in the space."""
        return (self._address_counts[lo:hi] == 0).nonzero()[0]

    def band_counts(self, partition_map: PartitionMap,
                    min_ttl: Ttl) -> List[int]:
        return partition_map.fold_ttl_counts(self._ttl_counts, min_ttl)

    def add(self, address: SlotIndex, ttl: Ttl, delta: int) -> None:
        """Count ``delta`` more sessions of ``ttl`` at ``address``: +1
        for a session heard, -1 for one gone."""
        self._address_counts[address] += delta
        self._ttl_counts[ttl] += delta


class AllocationResult(NamedTuple):
    """Outcome of one allocation.

    An immutable named tuple, cheap to build positionally;
    ``result._replace(address=...)`` gives a changed copy.

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
        rng: numpy Generator the allocator draws from.
    """

    #: short name used in experiment output ("R", "IR", "IPR 3-band"...)
    name: str = "base"

    def __init__(self, space_size: Count,
                 rng: np.random.Generator) -> None:
        if space_size <= 0:
            raise ValueError(f"space_size must be positive: {space_size}")
        self.space_size = int(space_size)
        self.rng = rng

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
            return AllocationResult(int(self.rng.integers(lo, hi)), band,
                                    False, True)
        r = int(self.rng.integers(0, len(free)))
        return AllocationResult(lo + int(free[r]), band, True, False)


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
