"""Session directory substrate: SAP/SDP and the clash protocol.

Models the sdr tool's machinery (paper §1, §3, §4):

* :mod:`repro.sap.sdp` — an SDP-lite session description format;
* :mod:`repro.sap.messages` — SAP announcement/deletion packets;
* :mod:`repro.sap.cache` — the announce/listen session cache;
* :mod:`repro.sap.announcer` — periodic re-announcement strategies
  (fixed interval, exponential back-off);
* :mod:`repro.sap.channel` — one scope's announcement channel and its
  bandwidth-limited interval (§4);
* :mod:`repro.sap.response_timer` — uniform/exponential suppression
  delays for the request-response protocol;
* :mod:`repro.sap.clash_protocol` — the three-phase clash detection
  and correction behaviour;
* :mod:`repro.sap.directory` — the per-site session directory tying
  it all together over the simulated network.
"""

from repro.sap.announcer import (
    Announcer,
    ExponentialBackoffStrategy,
    FixedIntervalStrategy,
)
from repro.sap.cache import CacheEntry, SessionCache
from repro.sap.channel import AnnouncementChannel
from repro.sap.clash_protocol import ClashPolicy
from repro.sap.mzap import (
    ZamTransport,
    ZoneAnnouncement,
    ZoneAnnouncer,
    ZoneListener,
)
from repro.sap.directory import SessionDirectory
from repro.sap.messages import SapMessage, SapMessageType
from repro.sap.response_timer import (
    ExponentialDelayTimer,
    UniformDelayTimer,
)
from repro.sap.sdp import MediaStream, SessionDescription

__all__ = [
    "AnnouncementChannel",
    "Announcer",
    "CacheEntry",
    "ZamTransport",
    "ZoneAnnouncement",
    "ZoneAnnouncer",
    "ZoneListener",
    "ClashPolicy",
    "ExponentialBackoffStrategy",
    "ExponentialDelayTimer",
    "FixedIntervalStrategy",
    "MediaStream",
    "SapMessage",
    "SapMessageType",
    "SessionCache",
    "SessionDescription",
    "SessionDirectory",
    "UniformDelayTimer",
]
