"""Discrete-event simulation substrate.

This subpackage provides the event kernel, deterministic random-number
streams and the lossy/delayed packet network model on which the SAP
(Session Announcement Protocol) and clash-detection simulations run.
"""

from repro.sim.clock import SimClock
from repro.sim.events import EventHandle, EventScheduler
from repro.sim.network import NetworkModel, Packet
from repro.sim.rng import RandomStreams
from repro.sim.trace import TraceRecord, Tracer, trace_directory

__all__ = [
    "EventHandle",
    "EventScheduler",
    "NetworkModel",
    "Packet",
    "RandomStreams",
    "SimClock",
    "TraceRecord",
    "Tracer",
    "trace_directory",
]
