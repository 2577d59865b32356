"""Simulated clock.

The clock is deliberately separate from the event scheduler so that
components which only need to *read* time (caches, announcers, protocol
state machines) do not also gain the ability to schedule events.
"""

from __future__ import annotations

from repro.sim.types import SimTime


class SimClock:
    """A monotonically non-decreasing simulated clock.

    Time is a float in seconds.  Only the owning :class:`EventScheduler`
    should advance the clock; everything else treats it as read-only.
    """

    def __init__(self, start: SimTime = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start at negative time {start!r}")
        self._now = float(start)

    @property
    def now(self) -> SimTime:
        """Current simulated time in seconds."""
        return self._now

    def advance_to(self, when: SimTime) -> None:
        """Move the clock forward to ``when``.

        Raises:
            ValueError: if ``when`` is earlier than the current time.
        """
        if when < self._now:
            raise ValueError(
                f"cannot move clock backwards from {self._now} to {when}"
            )
        self._now = float(when)

    def __repr__(self) -> str:
        return f"SimClock(now={self._now:.6f})"
