"""ScopeSanitizer — TTL scope containment of every delivery.

The paper's whole allocation argument rests on scoping actually
confining traffic: "a session's scope limits which other sessions it
can clash with" (§2.1).  The simulation enforces scope in the routing
layer (:func:`repro.sim.adapters.scoped_receiver_map` consults the
:class:`~repro.routing.scoping.ScopeMap`); this checker cross-checks
the *outcome* — every packet the network model actually delivers must
land at a node the scope map says can hear the (source, ttl) pair.  A
receiver map that leaks across a threshold, or a TTL rewritten in
flight, shows up here as:

* **SAN211 scope-violation** — a packet was delivered at a node whose
  minimum required TTL from the source exceeds the packet's TTL.

Scenarios without TTL scoping semantics (full-mesh kernels) run with
``scope_map=None``: the context then leaves deliveries unwrapped.
"""

from __future__ import annotations

from typing import Optional

from repro.routing.scoping import ScopeMap


class ScopeSanitizer:
    """Checks delivered packets against a topology's scope map."""

    def __init__(self, context,
                 scope_map: Optional[ScopeMap] = None) -> None:
        self._context = context
        self.scope_map = scope_map
        self.deliveries_checked = 0

    def on_packet_delivered(self, receiver: int, packet) -> None:
        assert self.scope_map is not None
        self.deliveries_checked += 1
        if not self.scope_map.can_hear(receiver, packet.source,
                                       packet.ttl):
            need = int(self.scope_map.need[packet.source, receiver])
            self._context.record(
                "SAN211", "scope-violation",
                f"packet from node {packet.source} with ttl="
                f"{packet.ttl} delivered at node {receiver}, which "
                f"needs ttl >= {need} to be in scope",
            )
