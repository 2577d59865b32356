"""Heap-based discrete event scheduler.

The scheduler owns a :class:`~repro.sim.clock.SimClock` and executes
callbacks in timestamp order.  Ties are broken by insertion order so runs
are fully deterministic for a given seed.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, List, Optional, Tuple

from repro.sim.clock import SimClock
from repro.sim.types import Duration, SimTime

Callback = Callable[[], Any]


class EventHandle:
    """A cancellable reference to a scheduled event."""

    __slots__ = ("when", "seq", "callback", "cancelled")

    def __init__(self, when: SimTime, seq: int,
                 callback: Callback) -> None:
        self.when = when
        self.seq = seq
        self.callback: Optional[Callback] = callback
        self.cancelled = False

    def cancel(self) -> None:
        """Prevent the event from firing.  Idempotent."""
        self.cancelled = True
        self.callback = None

    @property
    def pending(self) -> bool:
        """True while the event is scheduled and not cancelled/fired."""
        return not self.cancelled and self.callback is not None

    def __repr__(self) -> str:
        state = "cancelled" if self.cancelled else "pending"
        return f"EventHandle(when={self.when:.6f}, {state})"


class EventScheduler:
    """Executes callbacks in simulated-time order.

    Example:
        >>> sched = EventScheduler()
        >>> fired = []
        >>> _ = sched.schedule(1.5, lambda: fired.append(sched.now))
        >>> sched.run()
        >>> fired
        [1.5]
    """

    def __init__(self, start: SimTime = 0.0) -> None:
        self.clock = SimClock(start)
        self._heap: List[Tuple[float, int, EventHandle]] = []
        self._seq = 0
        self._events_run = 0

    @property
    def now(self) -> SimTime:
        """Current simulated time in seconds."""
        return self.clock.now

    @property
    def events_run(self) -> int:
        """Number of callbacks executed so far."""
        return self._events_run

    @property
    def events_scheduled(self) -> int:
        """Total events ever pushed onto the heap (including fired,
        cancelled and still-pending ones).  The benchmark reads this
        native total instead of counting schedules itself.
        """
        return self._seq

    @property
    def pending_count(self) -> int:
        """Number of events still queued, not counting cancelled ones."""
        return sum(1 for __, __, h in self._heap if not h.cancelled)

    def pending_handles(self) -> List[EventHandle]:
        """Live (pending) handles in firing order ``(when, seq)``.

        The model checker uses this to enumerate the timer events it
        may fire next; tombstoned (cancelled) heap entries are skipped.
        """
        live = [handle for __, __, handle in self._heap if handle.pending]
        live.sort(key=lambda handle: (handle.when, handle.seq))
        return live

    def schedule(self, delay: Duration, callback: Callback) -> EventHandle:
        """Schedule ``callback`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when: SimTime, callback: Callback) -> EventHandle:
        """Schedule ``callback`` at absolute time ``when``."""
        if when < self.now:
            raise ValueError(
                f"cannot schedule at {when} before current time {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        handle = EventHandle(when, seq, callback)
        heapq.heappush(self._heap, (when, seq, handle))
        return handle

    def step(self) -> bool:
        """Run the single next event.  Returns False if none remain."""
        while self._heap:
            when, __, handle = heapq.heappop(self._heap)
            if handle.cancelled or handle.callback is None:
                continue
            self.clock.advance_to(when)
            callback, handle.callback = handle.callback, None
            callback()
            self._events_run += 1
            return True
        return False

    def run(self, until: Optional[SimTime] = None,
            max_events: Optional[int] = None) -> None:
        """Run events until the queue drains, ``until``, or ``max_events``.

        Args:
            until: stop once the next event would fire after this time;
                the clock is then advanced exactly to ``until``.
            max_events: safety valve on the number of callbacks executed.
        """
        executed = 0
        while self._heap:
            if max_events is not None and executed >= max_events:
                return
            when = self._next_pending_time()
            if when is None:
                break
            if until is not None and when > until:
                self.clock.advance_to(until)
                return
            self.step()
            executed += 1
        if until is not None and until > self.now:
            self.clock.advance_to(until)

    def _next_pending_time(self) -> Optional[SimTime]:
        while self._heap:
            when, __, handle = self._heap[0]
            if handle.cancelled:
                heapq.heappop(self._heap)
                continue
            return when
        return None

    def __repr__(self) -> str:
        return (
            f"EventScheduler(now={self.now:.6f}, "
            f"pending={self.pending_count}, run={self._events_run})"
        )
