"""Structured simulation tracing.

A lightweight event log for debugging and for examples that want to
print protocol timelines.  Components emit typed records through a
shared :class:`Tracer`; consumers filter by category or node and
render chronologically.

The tracer is deliberately pull-free and allocation-cheap: when no
tracer is installed, emitting costs one attribute check.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sim.events import EventScheduler


@dataclass(frozen=True)
class TraceRecord:
    """One trace line."""

    time: float
    category: str
    node: Optional[int]
    message: str
    data: Dict[str, Any] = field(default_factory=dict)

    def format(self) -> str:
        where = f"n{self.node}" if self.node is not None else "-"
        extras = "".join(f" {k}={v}" for k, v in sorted(
            self.data.items()
        ))
        return (f"{self.time:10.3f}s {self.category:<12s} {where:>6s}  "
                f"{self.message}{extras}")


class Tracer:
    """Collects :class:`TraceRecord` entries in time order.

    Args:
        scheduler: timestamps are read from this scheduler's clock.
        capacity: oldest records are dropped past this bound (None =
            unbounded).
    """

    def __init__(self, scheduler: EventScheduler,
                 capacity: Optional[int] = 100_000) -> None:
        if capacity is not None and capacity <= 0:
            raise ValueError(f"capacity must be positive: {capacity}")
        self.scheduler = scheduler
        self.capacity = capacity
        self._records: List[TraceRecord] = []
        self.dropped = 0

    def emit(self, category: str, message: str,
             node: Optional[int] = None, **data: Any) -> None:
        """Record one event at the current simulated time."""
        record = TraceRecord(
            time=self.scheduler.now, category=category, node=node,
            message=message, data=data,
        )
        self._records.append(record)
        if self.capacity is not None and \
                len(self._records) > self.capacity:
            overflow = len(self._records) - self.capacity
            del self._records[:overflow]
            self.dropped += overflow

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def records(self, category: Optional[str] = None,
                node: Optional[int] = None,
                since: float = 0.0) -> List[TraceRecord]:
        """Records filtered by category, node and start time."""
        out = []
        for record in self._records:
            if category is not None and record.category != category:
                continue
            if node is not None and record.node != node:
                continue
            if record.time < since:
                continue
            out.append(record)
        return out

    def categories(self) -> List[str]:
        return sorted({record.category for record in self._records})

    def format_timeline(self, **filters: Any) -> str:
        """Human-readable chronological dump."""
        return "\n".join(record.format()
                         for record in self.records(**filters))

    def clear(self) -> None:
        self._records.clear()

    def __len__(self) -> int:
        return len(self._records)


def trace_directory(tracer: Tracer, directory) -> None:
    """Instrument a SessionDirectory to emit trace records.

    Wraps the directory's clash-protocol callbacks and packet handler
    so announcements, defences, retreats and proxy defences show up in
    the timeline.  Idempotent wrapping is NOT attempted — instrument a
    directory once.
    """
    node = directory.node

    original_on_packet = directory._on_packet

    def traced_on_packet(receiver, packet):
        tracer.emit("rx", "announcement received", node=receiver,
                    frm=packet.source, ttl=packet.ttl)
        original_on_packet(receiver, packet)

    directory._on_packet = traced_on_packet
    directory.network.unlisten(node, original_on_packet)
    directory.network.listen(node, traced_on_packet)

    original_defend = directory.defend

    def traced_defend(own):
        tracer.emit("defend", f"defending {own.description.name!r}",
                    node=node, address=own.session.address)
        original_defend(own)

    directory.defend = traced_defend

    original_retreat = directory.retreat

    def traced_retreat(own):
        old = own.session.address
        original_retreat(own)
        tracer.emit("retreat",
                    f"moved {own.description.name!r}", node=node,
                    frm=old, to=own.session.address)

    directory.retreat = traced_retreat

    original_proxy = directory.proxy_defend

    def traced_proxy(entry):
        tracer.emit("proxy", "third-party defence", node=node,
                    origin=entry.message.origin,
                    address=entry.address_index)
        original_proxy(entry)

    directory.proxy_defend = traced_proxy
