"""AddressSanitizer — shadow state over allocations and sessions.

The address space is the heap of this simulation: ``allocate`` is
malloc, a session withdrawal is free, and a stale announcement of a
withdrawn session is a use-after-free.  This checker keeps a shadow
map of live sessions per directory and checks four invariants:

* **SAN201 double-allocate** — an *informed*, non-forced allocation
  returned an address that the allocator's own view does not report
  free.  Cross-site clashes against invisible sessions are expected
  (the clash protocol exists to repair them, §3); returning an address
  the allocator could see in use is an algorithmic bug.
* **SAN202 alloc-out-of-bounds** — the address falls outside every
  range the allocator itself declares for the (ttl, visible) view via
  :meth:`~repro.core.allocator.Allocator.declared_ranges`; a
  partitioned allocator escaping its band defeats the entire IPRMA
  argument (§2.1).
* **SAN203 free-of-unallocated** — a directory withdrew (or moved) a
  session the shadow map does not hold: double delete or delete of a
  never-created session.
* **SAN204 use-after-expiry** — an ANNOUNCE for a withdrawn session
  was sent *by its originator*.  Third-party re-announcements are
  exempt: phase 3 of the clash protocol (proxy defence) legitimately
  re-announces other sites' cached sessions.
"""

from __future__ import annotations

from typing import Dict, Tuple

from repro.sap.messages import SapMessage, SapMessageType

#: Shadow key for a locally created session.
SessionKey = Tuple[int, int]  # (node, sdp session id)


class AddressSanitizer:
    """Shadow allocation state fed by directory and allocator wrappers."""

    def __init__(self, context) -> None:
        self._context = context
        self._live: Dict[SessionKey, object] = {}
        #: announcement key -> shadow key of the withdrawn session.
        self._withdrawn: Dict[Tuple[int, int], SessionKey] = {}

    # ------------------------------------------------------------------
    # Allocator check (SanitizerContext.watch_allocator's wrapper)
    # ------------------------------------------------------------------
    def on_allocate(self, allocator, node, ttl, visible, result) -> None:
        where = "" if node is None else f" at node {node}"
        address = result.address
        if (result.informed and not result.forced
                and not len(visible.free_offsets(address, address + 1))):
            self._context.record(
                "SAN201", "double-allocate",
                f"{allocator.name}{where}: informed allocation "
                f"returned address {result.address} already visible "
                f"in use (ttl={ttl})",
            )
        ranges = allocator.declared_ranges(ttl, visible)
        if not any(lo <= result.address < hi for lo, hi in ranges):
            self._context.record(
                "SAN202", "alloc-out-of-bounds",
                f"{allocator.name}{where}: address {result.address} "
                f"outside declared ranges {ranges} (ttl={ttl})",
            )

    # ------------------------------------------------------------------
    # Directory checks (SanitizerContext.watch_directory's wrappers)
    # ------------------------------------------------------------------
    def on_session_created(self, directory, own) -> None:
        key = (directory.node, own.description.session_id)
        self._live[key] = own

    def on_session_withdrawn(self, directory, own) -> None:
        key = (directory.node, own.description.session_id)
        if key not in self._live:
            self._context.record(
                "SAN203", "free-of-unallocated",
                f"node {directory.node} withdrew session "
                f"{own.description.session_id} that was never "
                f"allocated (or was already withdrawn)",
            )
        else:
            del self._live[key]
        self._withdrawn[own.message_key()] = key

    def on_session_moved(self, directory, own, old_address) -> None:
        key = (directory.node, own.description.session_id)
        if key not in self._live:
            self._context.record(
                "SAN203", "free-of-unallocated",
                f"node {directory.node} moved session "
                f"{own.description.session_id} (address "
                f"{old_address} -> {own.session.address}) that the "
                f"shadow state does not hold",
            )
            self._live[key] = own

    # ------------------------------------------------------------------
    # Network check (SanitizerContext.attach_network's wrapper)
    # ------------------------------------------------------------------
    def on_packet_sent(self, packet) -> None:
        payload = packet.payload
        if not isinstance(payload, (bytes, bytearray)):
            return
        try:
            message = SapMessage.decode(bytes(payload))
        except ValueError:
            # Non-SAP payloads are opaque.
            return
        if message.msg_type is not SapMessageType.ANNOUNCE:
            return
        key = self._withdrawn.get(message.key())
        if key is not None and packet.source == message.origin:
            node, session_id = key
            self._context.record(
                "SAN204", "use-after-expiry",
                f"node {node} announced withdrawn session "
                f"{session_id} (origin re-announce after deletion)",
            )

    # ------------------------------------------------------------------
    @property
    def live_count(self) -> int:
        """Sessions currently held live in the shadow map."""
        return len(self._live)
