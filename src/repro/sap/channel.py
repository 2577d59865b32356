"""The shared announcement channel and its bandwidth budget (§4).

"The same announcement channel must be used by all announcements of
the same scope... as the MBone scales... the amount of bandwidth
dedicated to announcements would have to increase significantly or the
inter-announcement interval would become too long to give any kind of
assurance of reliability."

An :class:`AnnouncementChannel` models one scope's SAP group: it
tracks the sessions announced into it and derives the per-session
re-announcement interval from the channel's bandwidth budget (real SAP
uses the same rule: interval = max(300, 8 * ads * ad_size / limit)).
It exposes the numbers behind §4's scaling argument: given a channel
budget and a session population, what announcement interval — and
hence what eq.-1 invisibility — results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.analysis.announcement import invisible_fraction

#: Classic SAP channel budget.
DEFAULT_BANDWIDTH_BPS = 4000.0
#: Classic SAP floor on the announcement interval (RFC 2974 uses 300 s).
DEFAULT_MIN_INTERVAL = 300.0


@dataclass
class ChannelStats:
    """Derived figures for a channel population."""

    sessions: int
    interval: float
    announcements_per_second: float
    invisible_fraction: float


class AnnouncementChannel:
    """One scope's announcement group with a bandwidth budget.

    Args:
        bandwidth_bps: total announcement bandwidth for the scope.
        min_interval: floor on the per-session interval.
        mean_payload_bytes: average announcement size.
    """

    def __init__(self, bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
                 min_interval: float = DEFAULT_MIN_INTERVAL,
                 mean_payload_bytes: int = 512) -> None:
        if bandwidth_bps <= 0 or min_interval <= 0:
            raise ValueError("bandwidth and min interval must be positive")
        if mean_payload_bytes <= 0:
            raise ValueError("payload size must be positive")
        self.bandwidth_bps = bandwidth_bps
        self.min_interval = min_interval
        self.mean_payload_bytes = mean_payload_bytes
        self._sizes: Dict[object, int] = {}

    # ------------------------------------------------------------------
    # Population tracking
    # ------------------------------------------------------------------
    def register(self, key: object, payload_bytes: Optional[int] = None
                 ) -> None:
        """Add (or update) a session announced on this channel."""
        self._sizes[key] = (payload_bytes if payload_bytes is not None
                            else self.mean_payload_bytes)

    @property
    def session_count(self) -> int:
        return len(self._sizes)

    def total_bytes(self) -> int:
        return sum(self._sizes.values())

    # ------------------------------------------------------------------
    # The SAP interval rule and its consequences
    # ------------------------------------------------------------------
    def interval(self) -> float:
        """Per-session re-announcement interval under the budget.

        SAP's rule: each announcer sends its ads once per interval and
        the whole population must fit in the bandwidth budget.
        """
        bits = self.total_bytes() * 8.0
        if bits == 0:
            return self.min_interval
        return max(self.min_interval, bits / self.bandwidth_bps)

    def stats(self, e2e_delay: float = 0.2, loss: float = 0.02,
              advertised_time: float = 4 * 3600.0) -> ChannelStats:
        """Interval plus the eq.-1 invisibility it implies."""
        interval = self.interval()
        # Mean discovery delay with geometric retransmission.
        delay = e2e_delay + interval * loss / (1.0 - loss)
        return ChannelStats(
            sessions=self.session_count,
            interval=interval,
            announcements_per_second=(
                self.session_count / interval if interval else 0.0
            ),
            invisible_fraction=invisible_fraction(delay, advertised_time),
        )
