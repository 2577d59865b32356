"""Periodic announcement strategies and the announcer loop.

The paper's conclusions (§4) place two requirements on the announcing
side: the rate must be *non-uniform* (start fast — say a 5 second
interval — and exponentially back off to a background rate) to keep
the mean propagation delay low; and all announcements of one scope
must share a channel whose bandwidth is bounded, so the steady-state
interval has to scale with the number of sessions being announced
(as real SAP does; :mod:`repro.sap.channel` models that rule).
"""

from __future__ import annotations

import abc
from typing import Callable, Optional

import numpy as np

from repro.analysis.announcement import ExponentialBackoffSchedule
from repro.sim.events import EventHandle, EventScheduler
from repro.sim.types import Duration


class AnnouncementStrategy(abc.ABC):
    """Decides the gap before the next re-announcement."""

    @abc.abstractmethod
    def next_interval(self, announcements_sent: int) -> Duration:
        """Seconds until the next announcement.

        Args:
            announcements_sent: how many announcements this announcer
                has already sent (>= 1 when first consulted).
        """


class FixedIntervalStrategy(AnnouncementStrategy):
    """Constant re-announcement interval (sdr's classic 10 minutes)."""

    def __init__(self, interval: Duration = 600.0) -> None:
        if interval <= 0:
            raise ValueError(f"interval must be positive: {interval}")
        self.interval = interval

    def next_interval(self, announcements_sent: int) -> Duration:
        return self.interval


class ExponentialBackoffStrategy(AnnouncementStrategy):
    """Start fast, back off exponentially to a background rate (§4)."""

    def __init__(self, schedule: Optional[ExponentialBackoffSchedule]
                 = None) -> None:
        self.schedule = schedule or ExponentialBackoffSchedule()

    def next_interval(self, announcements_sent: int) -> Duration:
        gaps = self.schedule.intervals(max(1, announcements_sent))
        return gaps[-1]


class Announcer:
    """Drives one session's announcement loop on the event scheduler.

    Args:
        scheduler: the simulation's event scheduler.
        send: callback performing the actual multicast send.
        strategy: interval policy.
        rng: for the +/-jitter applied to each interval.
        jitter_fraction: uniform jitter as a fraction of the interval,
            de-synchronising announcers.
    """

    def __init__(self, scheduler: EventScheduler, send: Callable[[], None],
                 strategy: AnnouncementStrategy,
                 rng: np.random.Generator,
                 jitter_fraction: float = 0.1) -> None:
        if not 0.0 <= jitter_fraction < 1.0:
            raise ValueError(f"jitter_fraction outside [0, 1): "
                             f"{jitter_fraction}")
        self.scheduler = scheduler
        self.send = send
        self.strategy = strategy
        self.rng = rng
        self.jitter_fraction = jitter_fraction
        self.announcements_sent = 0
        self._pending: Optional[EventHandle] = None
        self._running = False

    @property
    def running(self) -> bool:
        return self._running

    def start(self) -> None:
        """Announce now and keep re-announcing until stopped."""
        if self._running:
            return
        self._running = True
        self._fire()

    def stop(self) -> None:
        """Stop the loop; no further announcements are sent."""
        self._running = False
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    def announce_now(self) -> None:
        """Send an extra immediate announcement (clash defence)."""
        if self._running:
            self.send()
            self.announcements_sent += 1

    def _fire(self) -> None:
        if not self._running:
            return
        self.send()
        self.announcements_sent += 1
        interval = self.strategy.next_interval(self.announcements_sent)
        if self.jitter_fraction:
            low = 1.0 - self.jitter_fraction
            high = 1.0 + self.jitter_fraction
            interval *= float(self.rng.uniform(low, high))
        self._pending = self.scheduler.schedule(interval, self._fire)
