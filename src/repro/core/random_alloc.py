"""Pure random allocation — the paper's algorithm "R".

Chooses uniformly over the whole space, ignoring everything the session
directory knows.  Expected allocations before a clash grow as the
square root of the space size (the birthday problem, fig. 4).
"""

from __future__ import annotations

from repro.core.allocator import AllocationResult, AllocationView, Allocator


class RandomAllocator(Allocator):
    """Uniform random choice over the full address space."""

    name = "R"

    def allocate(self, ttl: int, visible: AllocationView) -> AllocationResult:
        self._check_ttl(ttl)
        address = int(self.rng.integers(0, self.space_size))
        return AllocationResult(address, band=None, informed=False,
                                forced=False)
