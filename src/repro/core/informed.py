"""Informed random allocation — the paper's algorithm "IR".

"An address is not allocated if it is seen in another session
announcement."  The choice is uniform over the addresses the site does
not know to be in use.  Because differently-scoped sessions are
invisible outside their scope, IR "is not a great improvement on
random allocation" in the paper's fig. 5 — the invisible allocations
dominate.
"""

from __future__ import annotations

from repro.core.allocator import AllocationResult, AllocationView, Allocator


class InformedRandomAllocator(Allocator):
    """Uniform random choice among addresses not known to be in use."""

    name = "IR"

    def allocate(self, ttl: int, visible: AllocationView) -> AllocationResult:
        self._check_ttl(ttl)
        return self._informed_pick(visible, 0, self.space_size, band=None)
