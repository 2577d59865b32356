"""Runtime determinism harness: run one scenario twice, byte-compare.

Static rules (:mod:`repro.lint.rules`) catch *sources* of
nondeterminism; this harness checks the *outcome*: a small but complete
allocation + clash-protocol scenario — lossy jittered network, tiny
address space so clashes are guaranteed, a partition that heals midway,
session lifetimes expiring — is run twice with the same seed and the
two event traces must be byte-identical.  Any unseeded RNG, wall-clock
read, or unstable iteration order upstream shows up here as a trace
divergence, with the first differing line reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.sap.announcer import FixedIntervalStrategy
from repro.sap.directory import SessionDirectory
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel
from repro.sim.rng import RandomStreams
from repro.sim.trace import Tracer, trace_directory


@dataclass(frozen=True)
class DeterminismReport:
    """Outcome of a run-twice comparison."""

    identical: bool
    seed: int
    events_run: int
    trace_lines: int
    first_divergence: Optional[str]

    def format(self) -> str:
        status = "IDENTICAL" if self.identical else "DIVERGED"
        lines = [
            f"determinism: {status} (seed={self.seed}, "
            f"events={self.events_run}, trace={self.trace_lines} lines)"
        ]
        if self.first_divergence:
            lines.append(self.first_divergence)
        return "\n".join(lines)


def run_scenario(seed: int = 1998, num_sites: int = 6,
                 sessions_per_site: int = 3, space_size: int = 12,
                 horizon: float = 240.0, sanitizer=None) -> str:
    """One full scenario; returns its complete event trace as text.

    The trace includes every announcement receipt, clash defence,
    retreat and third-party proxy defence, plus a counter footer, so
    two textually equal traces mean the runs were behaviourally
    identical.

    Args:
        sanitizer: optional
            :class:`repro.sanitize.SanitizerContext`; when given, the
            scheduler, network and every directory run under full
            shadow-state checking (the sanitizers observe, never
            steer, so the trace is unchanged).
    """
    streams = RandomStreams(seed)
    scheduler = EventScheduler()
    if sanitizer is not None:
        sanitizer.attach_scheduler(scheduler)

    def receiver_map(source: int, ttl: int):
        # Full mesh with deterministic, asymmetric per-pair delays.
        return [(node, 0.01 + 0.003 * ((source + 2 * node) % 7))
                for node in range(num_sites) if node != source]

    network = NetworkModel(scheduler, receiver_map, streams=streams,
                           loss_rate=0.05, jitter=0.02)
    if sanitizer is not None:
        sanitizer.attach_network(network)
    space = MulticastAddressSpace.abstract(space_size)
    tracer = Tracer(scheduler)

    directories: List[SessionDirectory] = []
    for node in range(num_sites):
        directory = SessionDirectory(
            node, scheduler, network,
            InformedRandomAllocator(space_size,
                                    streams.get(f"alloc.{node}")),
            space,
            strategy_factory=lambda: FixedIntervalStrategy(20.0),
            rng=streams.get(f"dir.{node}"),
        )
        trace_directory(tracer, directory)
        if sanitizer is not None:
            sanitizer.watch_directory(directory)
        directories.append(directory)

    workload = streams.get("lint.workload")

    def make_creation(directory: SessionDirectory, name: str, ttl: int,
                      lifetime: Optional[float]):
        def create() -> None:
            tracer.emit("create", f"creating {name!r}",
                        node=directory.node, ttl=ttl)
            directory.create_session(name, ttl=ttl, lifetime=lifetime)
        return create

    index = 0
    for node, directory in enumerate(directories):
        for k in range(sessions_per_site):
            when = float(workload.uniform(0.0, horizon / 3.0))
            # Every third session expires mid-run, exercising the
            # expiry-handle and deletion paths.
            lifetime = 45.0 if index % 3 == 0 else None
            scheduler.schedule_at(  # simlint: disable=discarded-handle
                when,
                make_creation(directory, f"s{index}@{node}", 127,
                              lifetime),
            )
            index += 1

    # A partition that heals midway: both sides allocate from the same
    # tiny space while split, so the heal provokes the clash protocol
    # ("a network partition has been resolved recently", paper section 3).
    half = range(num_sites // 2)
    scheduler.schedule_at(  # simlint: disable=discarded-handle
        horizon / 4.0, lambda: network.partition(half)
    )
    scheduler.schedule_at(  # simlint: disable=discarded-handle
        horizon / 2.0, network.heal
    )

    scheduler.run(until=horizon, max_events=1_000_000)

    lines = [tracer.format_timeline()]
    lines.append("-- counters --")
    lines.append(f"events_run={scheduler.events_run}")
    lines.append(f"packets sent={network.packets_sent} "
                 f"delivered={network.packets_delivered} "
                 f"lost={network.packets_lost}")
    for directory in directories:
        handler = directory.clash_handler
        lines.append(
            f"n{directory.node}: rx={directory.announcements_received} "
            f"moves={directory.address_changes} "
            f"clashes={handler.clashes_seen if handler else 0} "
            f"defences={handler.defences_sent if handler else 0} "
            f"retreats={handler.retreats if handler else 0}"
        )
    return "\n".join(lines) + "\n"


def verify(seed: int = 1998, **scenario_kwargs) -> DeterminismReport:
    """Run the scenario twice with one seed; compare traces exactly."""
    first = run_scenario(seed=seed, **scenario_kwargs)
    second = run_scenario(seed=seed, **scenario_kwargs)
    events = first.count("\n")
    if first == second:
        return DeterminismReport(
            identical=True, seed=seed, events_run=events,
            trace_lines=events, first_divergence=None,
        )
    divergence = None
    for number, (a, b) in enumerate(
            zip(first.splitlines(), second.splitlines()), start=1):
        if a != b:
            divergence = (f"first divergence at trace line {number}:\n"
                          f"  run 1: {a}\n  run 2: {b}")
            break
    if divergence is None:
        divergence = "traces differ in length only"
    return DeterminismReport(
        identical=False, seed=seed, events_run=events,
        trace_lines=events, first_divergence=divergence,
    )
