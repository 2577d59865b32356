"""The benchmark's three workloads.

Each workload is a closed-loop batch simulation: simulated time and a
fixed amount of work drive the load, never a wall-clock arrival rate.
The seed is the only input; everything the program receives is
generated from it.  One *repetition* builds the harness (timed as
set-up), runs the timed region as a fixed sequence of units, each
timed on its own (some units more than once) with host-speed probes
between them, and returns a deterministic fingerprint plus any broken
invariants.  Repetitions of one seed must produce identical
fingerprints, and a traced repetition must produce the untraced one's,
because observers never steer.

* ``sap-churn`` — the steady churn harness of ``repro.obs.scenarios``
  (8 sites, 16-slot space, 10 sessions per site, 600 s horizon,
  partition and heal) at :data:`CHURN_HARNESSES` sub-seeds derived
  from the seed, each cut at :data:`CHURN_EVENTS` events.  The cut
  fixes the work per run; averaging several sub-seeds keeps one
  seed's clash storms from setting the per-event cost.  The cut falls
  in the arrival ramp, at 60-170 simulated seconds, so nearly every
  harness stops before the partition (150 s) and all before the heal.
* ``sap-refresh`` — a few sites with hundreds of long-lived sessions
  each, so every cache holds thousands of entries.  Set-up creates
  every session and lets its first announcement fill the other
  caches; the timed region is one refresh round of pure cache hits,
  sampled over :data:`REFRESH_ROUNDS` consecutive rounds that do the
  same work.
* ``alloc-sweep`` — the fig. 5 sweep then the fig. 12 sweep on the
  400-node Mbone at the figure benchmarks' defaults.  The seed drives
  the trials; the map is the figures' own (seed 1998).
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import time
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from hostspeed import HostProbe, scale
from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.experiments.algorithms import algorithm_factory
from repro.experiments.allocation_run import fig5_cell
from repro.experiments.steady_state import steady_cell
from repro.experiments.ttl_distributions import ALL_DISTRIBUTIONS, DS4
from repro.obs.scenarios import build_steady
from repro.routing.scoping import ScopeMap
from repro.sap.announcer import FixedIntervalStrategy
from repro.sap.directory import SessionDirectory
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel
from repro.sim.rng import RandomStreams
from repro.topology.mbone import MboneParams, generate_mbone

clock = time.perf_counter

#: Independent churn harnesses per repetition, and events run in each.
CHURN_HARNESSES = 16
CHURN_EVENTS = 6_250
#: The BENCH_obs configuration of the churn harness.
CHURN_SESSIONS_PER_SITE = 10
CHURN_HORIZON = 600.0

#: Separately timed slices of one sap-refresh round, and the rounds
#: run after each fill.
REFRESH_UNITS = 8
REFRESH_ROUNDS = 2
#: Simulated seconds between one session's announcements.
REFRESH_INTERVAL = 1000.0

#: The Mbone map of the fig. 5 and fig. 12 benchmarks.
MAP_SEED = 1998

#: Simulated seconds between state-size samples in a traced run.
SAMPLE_PERIOD = 60.0


@dataclass
class Rep:
    """One repetition: its timings, work done and fingerprint."""

    setup_s: float
    #: Wall seconds of each unit of the timed region, in run order; a
    #: unit run several times in one repetition has several samples.
    units: List[List[float]]
    #: Units of work in the timed region: scheduler events for the SAP
    #: workloads, ``allocate()`` calls for ``alloc-sweep``.
    work: int
    fingerprint: Dict[str, Any]
    problems: List[str] = field(default_factory=list)
    #: Public counters the per-layer metrics are derived from.
    counters: Dict[str, float] = field(default_factory=dict)
    #: Host-speed probe times taken through the repetition.
    probes: List[float] = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Factor from this repetition's wall seconds to reference
        seconds (see :mod:`hostspeed`)."""
        return scale(self.probes)

    @property
    def run_s(self) -> float:
        return self.scale * sum(min(samples) for samples in self.units)


def _region(tracer, name: str):
    return nullcontext() if tracer is None else tracer.region(name)


def _paused(tracer):
    return nullcontext() if tracer is None else tracer.paused()


def _digest(value: Any) -> str:
    text = json.dumps(value, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# SAP workloads
# ----------------------------------------------------------------------
def advance(scheduler: EventScheduler,
            directories: Sequence[SessionDirectory], until: float,
            max_events: Optional[int] = None, tracer=None) -> None:
    """Run ``scheduler`` to ``until`` or ``max_events`` more events.

    Untraced, this is one ``run`` call.  Traced, the same run is cut at
    every simulated minute to sample cache sizes and the pending event
    count through public surfaces; stopping and resuming ``run`` at a
    time boundary fires the same events in the same order.
    """
    if tracer is None:
        scheduler.run(until=until, max_events=max_events)
        return
    target = (None if max_events is None
              else scheduler.events_run + max_events)
    while True:
        minute = (math.floor(scheduler.now / SAMPLE_PERIOD) + 1) \
            * SAMPLE_PERIOD
        budget = (None if target is None
                  else target - scheduler.events_run)
        scheduler.run(until=min(minute, until), max_events=budget)
        tracer.sample("sim.events.pending", scheduler.now,
                      scheduler.pending_count)
        tracer.sample("sap.cache.entries", scheduler.now,
                      max(len(d.cache) for d in directories))
        if scheduler.now >= until or (
                target is not None and scheduler.events_run >= target):
            return


def sap_counters(scheduler: EventScheduler,
                 directories: Sequence[SessionDirectory]
                 ) -> Dict[str, float]:
    """The program's public SAP-stack counters for one harness."""
    network = directories[0].network
    handlers = [d.clash_handler for d in directories
                if d.clash_handler is not None]
    return {
        "events_scheduled": scheduler.events_scheduled,
        "events_run": scheduler.events_run,
        "packets_sent": network.packets_sent,
        "packets_delivered": network.packets_delivered,
        "packets_lost": network.packets_lost,
        "address_changes": sum(d.address_changes for d in directories),
        "clashes_seen": sum(h.clashes_seen for h in handlers),
        "retreats": sum(h.retreats for h in handlers),
        "defences_sent": sum(h.defences_sent for h in handlers),
    }


def sap_summary(rows: List[list]) -> Dict[str, Any]:
    """Fingerprint over per-harness :func:`sap_row` rows."""
    return {
        "events_run": sum(row[0] for row in rows),
        "packets_delivered": sum(row[1] for row in rows),
        "address_changes": sum(row[2] for row in rows),
        "cache_entries": sum(sum(row[3]) for row in rows),
        "digest": _digest(rows),
    }


def sap_row(scheduler: EventScheduler,
            directories: Sequence[SessionDirectory]) -> list:
    """Events, deliveries, address changes and final cache sizes."""
    return [
        scheduler.events_run,
        directories[0].network.packets_delivered,
        sum(d.address_changes for d in directories),
        [len(d.cache) for d in directories],
    ]


def sap_problems(directories: Sequence[SessionDirectory]) -> List[str]:
    """Invariants every SAP harness must satisfy after its run."""
    problems = []
    network = directories[0].network
    space = directories[0].address_space
    fanout = len(directories) - 1
    if (network.packets_delivered + network.packets_lost
            > network.packets_sent * fanout):
        problems.append("more deliveries and losses than packets sent "
                        "could cause")
    for directory in directories:
        for entry in directory.cache.entries():
            if entry.message.origin == directory.node:
                problems.append(f"site {directory.node} caches its own "
                                f"announcement")
            expected = space.ip_to_index(
                entry.description.connection_address)
            if entry.address_index != expected:
                problems.append(
                    f"site {directory.node} maps "
                    f"{entry.description.connection_address} to "
                    f"{entry.address_index}, not {expected}")
        for own in directory.own_sessions():
            if not space.contains_index(own.session.address):
                problems.append(f"site {directory.node} holds a session "
                                f"outside the space")
    return problems


def _add(totals: Dict[str, float], counters: Dict[str, float]) -> None:
    for name, value in counters.items():
        totals[name] = totals.get(name, 0) + value


class SapChurn:
    """Write-heavy churn: creations, withdrawals, clash retreats."""

    name = "sap-churn"

    def __init__(self, seed: int, harnesses: int = CHURN_HARNESSES,
                 events: int = CHURN_EVENTS) -> None:
        streams = RandomStreams(seed)
        self.sub_seeds = [streams.fork(k).seed for k in range(harnesses)]
        self.events = events

    def warm(self) -> None:
        scheduler, __ = build_steady(0, sessions_per_site=1, horizon=60.0)
        scheduler.run(until=60.0)

    def rep(self, tracer=None) -> Rep:
        # One harness at a time, so peak memory is one harness's.
        setup_s = 0.0
        units: List[List[float]] = []
        rows: List[list] = []
        problems: List[str] = []
        counters: Dict[str, float] = {}
        host = HostProbe()
        for number, sub_seed in enumerate(self.sub_seeds):
            begin = clock()
            with _region(tracer, "setup"):
                scheduler, directories = build_steady(
                    sub_seed, sessions_per_site=CHURN_SESSIONS_PER_SITE,
                    horizon=CHURN_HORIZON)
            setup_s += clock() - begin
            gc.collect()
            begin = clock()
            with _region(tracer, "run"):
                advance(scheduler, directories, CHURN_HORIZON,
                        max_events=self.events, tracer=tracer)
            units.append([clock() - begin])
            host.tick()
            rows.append(sap_row(scheduler, directories))
            _add(counters, sap_counters(scheduler, directories))
            with _paused(tracer):
                problems += [f"harness {number}: {problem}" for problem
                             in sap_problems(directories)]
        return Rep(setup_s, units, int(counters["events_run"]),
                   sap_summary(rows), problems, counters, host.samples)


class SapRefresh:
    """Read-heavy refresh: big caches, cache hits, O(cache) scans."""

    name = "sap-refresh"

    def __init__(self, seed: int, sites: int = 4,
                 sessions_per_site: int = 800,
                 space_size: int = 8192) -> None:
        self.seed = seed
        self.sites = sites
        self.sessions_per_site = sessions_per_site
        self.space_size = space_size
        # Creations end before the first re-announcement is due
        # (interval x 0.9 after creation, the announcer's jitter), so
        # set-up is creation and first delivery only.
        self.fill_until = 0.8 * REFRESH_INTERVAL
        # One refresh round: every session fires once and reaches the
        # other sites (no loss, no timers besides the announcers).
        self.refresh_events = sites * sessions_per_site * sites
        self.chunk_events = -(-self.refresh_events // REFRESH_UNITS)

    def warm(self) -> None:
        SapRefresh(self.seed, sites=2, sessions_per_site=4,
                   space_size=64).rep()

    def build(self, tracer=None):
        streams = RandomStreams(self.seed)
        scheduler = EventScheduler()
        sites = self.sites

        def receiver_map(source: int, ttl: int):
            return [(node, 0.01 + 0.002 * ((source + 3 * node) % 5))
                    for node in range(sites) if node != source]

        network = NetworkModel(scheduler, receiver_map, streams=streams,
                               loss_rate=0.0, jitter=0.01)
        space = MulticastAddressSpace.abstract(self.space_size)
        directories = [
            SessionDirectory(
                node, scheduler, network,
                InformedRandomAllocator(self.space_size,
                                        streams.get(f"alloc.{node}")),
                space,
                strategy_factory=lambda: FixedIntervalStrategy(
                    REFRESH_INTERVAL),
                rng=streams.get(f"dir.{node}"),
            )
            for node in range(sites)
        ]
        workload = streams.get("perfbench.refresh")
        for node, directory in enumerate(directories):
            for index in range(self.sessions_per_site):
                when = float(workload.uniform(0.0, self.fill_until))
                ttl = int(workload.choice((15, 63, 127)))
                scheduler.schedule_at(  # simlint: disable=discarded-handle
                    when, _creation(directory, f"r{index}@{node}", ttl))
        advance(scheduler, directories, self.fill_until + 1.0,
                tracer=tracer)
        return scheduler, directories

    def rep(self, tracer=None) -> Rep:
        # The last repetition's harness is cyclic garbage: collect it
        # here, not inside the next set-up.
        gc.collect()
        host = HostProbe()
        begin = clock()
        with _region(tracer, "setup"):
            scheduler, directories = self.build(tracer)
        setup_s = clock() - begin
        chunks = range(0, self.refresh_events, self.chunk_events)
        units: List[List[float]] = [[] for __ in chunks]
        gc.collect()
        with _region(tracer, "run"):
            # Every round is the same work (each session re-announced
            # to every other site, all hits), so slice k of each round
            # is one more sample of unit k.
            for __ in range(REFRESH_ROUNDS):
                for samples, first in zip(units, chunks):
                    begin = clock()
                    advance(scheduler, directories,
                            10.0 * REFRESH_INTERVAL,
                            max_events=min(self.chunk_events,
                                           self.refresh_events - first),
                            tracer=tracer)
                    samples.append(clock() - begin)
                    host.tick()
        with _paused(tracer):
            problems = (sap_problems(directories)
                        + refresh_problems(directories))
        return Rep(setup_s, units, self.refresh_events,
                   sap_summary([sap_row(scheduler, directories)]),
                   problems, sap_counters(scheduler, directories),
                   host.samples)


def _creation(directory: SessionDirectory, name: str,
              ttl: int) -> Callable[[], None]:
    def create() -> None:
        directory.create_session(name, ttl=ttl)
    return create


def refresh_problems(directories) -> List[str]:
    """Every cache holds the other sites' current sessions.

    A cache key is the origin and a 16-bit hash of the payload, so with
    hundreds of sessions per site some keys collide.  When a session
    that moved address announces under a key another session already
    holds, caches keep that session's old version: a stale key.  So a
    stale key may only come from an address change at another site,
    and no current key may be missing.
    """
    problems = []
    for directory in directories:
        others = [other for other in directories if other is not directory]
        expected = {own.message_key() for other in others
                    for own in other.own_sessions()}
        held = {entry.message.key() for entry in directory.cache.entries()}
        stale = len(held - expected)
        moved = sum(other.address_changes for other in others)
        if expected - held or stale > moved:
            problems.append(
                f"site {directory.node}: cache holds {len(held)} keys, "
                f"{stale} stale (after {moved} address changes) and "
                f"{len(expected - held)} missing")
    return problems


# ----------------------------------------------------------------------
# Allocation sweeps
# ----------------------------------------------------------------------
#: Display names as in the fig. 5 and fig. 12 benchmarks; the trial
#: streams are keyed on them, so rows match those benchmarks.
FIG5_ALGORITHMS = {"R": "random", "IR": "informed",
                   "IPR 3-band": "ipr3", "IPR 7-band": "ipr7"}
FIG12_ALGORITHMS = {
    "AIPR-1 (20% gap)": "aipr1", "AIPR-2 (50% gap)": "aipr2",
    "AIPR-3 (60% gap)": "aipr3", "AIPR-4 (70% gap)": "aipr4",
    "AIPR-H (hybrid)": "aiprh", "IPR 3-band": "ipr3",
    "IPR 7-band": "ipr7",
}


class _Counted:
    """Allocator factories whose allocators count ``allocate()`` calls."""

    def __init__(self) -> None:
        self.calls = 0

    def factories(self, table: Dict[str, str]):
        return {display: self._counting(algorithm_factory(name))
                for display, name in table.items()}

    def _counting(self, factory):
        def make(space_size: int, rng: np.random.Generator):
            allocator = factory(space_size, rng)
            allocate = allocator.allocate

            def counted(ttl, visible):
                self.calls += 1
                return allocate(ttl, visible)

            allocator.allocate = counted
            return allocator
        return make


class AllocSweep:
    """Figs. 5 and 12 on the Mbone map; no scheduler, no SAP."""

    name = "alloc-sweep"

    def __init__(self, seed: int, nodes: int = 400,
                 space_sizes: Tuple[int, ...] = (100, 200, 400),
                 fig5_trials: int = 3, fig12_trials: int = 4) -> None:
        self.seed = seed
        self.nodes = nodes
        self.space_sizes = list(space_sizes)
        self.fig5_trials = fig5_trials
        self.fig12_trials = fig12_trials

    def warm(self) -> None:
        AllocSweep(self.seed, nodes=40, space_sizes=(16,), fig5_trials=1,
                   fig12_trials=1).rep()

    def rep(self, tracer=None) -> Rep:
        gc.collect()
        host = HostProbe()
        begin = clock()
        with _region(tracer, "setup"):
            with _region(tracer, "topology.mbone.generate"):
                topology = generate_mbone(MboneParams(
                    total_nodes=self.nodes, seed=MAP_SEED))
            with _region(tracer, "routing.scoping.from_topology"):
                scope_map = ScopeMap.from_topology(topology)
        setup_s = clock() - begin
        counted = _Counted()
        units: List[List[float]] = []
        fig5, fig12 = [], []
        gc.collect()
        # The cell loops of fig5_run and steady_state_sweep, with each
        # cell timed as one unit.
        with _region(tracer, "run"):
            with _region(tracer, "experiments.fig5"):
                for display, factory in counted.factories(
                        FIG5_ALGORITHMS).items():
                    for distribution in ALL_DISTRIBUTIONS:
                        for space_size in self.space_sizes:
                            begin = clock()
                            fig5.append(fig5_cell(
                                scope_map, factory, display,
                                distribution, space_size,
                                self.fig5_trials, seed=self.seed))
                            units.append([clock() - begin])
                            host.tick()
            with _region(tracer, "experiments.fig12"):
                for display, factory in counted.factories(
                        FIG12_ALGORITHMS).items():
                    for space_size in self.space_sizes:
                        begin = clock()
                        fig12.append(steady_cell(
                            scope_map, factory, display, space_size,
                            DS4, trials=self.fig12_trials,
                            seed=self.seed))
                        units.append([clock() - begin])
                        host.tick()
        fig5_rows = [[r.algorithm, r.distribution, r.space_size,
                      repr(r.mean_allocations), r.trials] for r in fig5]
        fig12_rows = [[r.algorithm, r.space_size, r.allocations_at_half]
                      for r in fig12]
        fingerprint = {
            "allocations": counted.calls,
            "fig5_sha256": _digest(fig5_rows),
            "fig12_sha256": _digest(fig12_rows),
        }
        return Rep(setup_s, units, counted.calls, fingerprint,
                   self._problems(fig5, fig12), probes=host.samples)

    def _problems(self, fig5, fig12) -> List[str]:
        problems = []
        cells5 = (len(FIG5_ALGORITHMS) * len(ALL_DISTRIBUTIONS)
                  * len(self.space_sizes))
        cells12 = len(FIG12_ALGORITHMS) * len(self.space_sizes)
        if len(fig5) != cells5 or len(fig12) != cells12:
            problems.append(f"expected {cells5} + {cells12} rows, got "
                            f"{len(fig5)} + {len(fig12)}")
        for row in fig5:
            if not 0.0 <= row.mean_allocations <= 16 * row.space_size:
                problems.append(f"fig. 5 {row.algorithm}/"
                                f"{row.distribution}/{row.space_size}: "
                                f"{row.mean_allocations} out of range")
        for row in fig12:
            if not 1 <= row.allocations_at_half <= 4 * row.space_size:
                problems.append(f"fig. 12 {row.algorithm}/"
                                f"{row.space_size}: "
                                f"{row.allocations_at_half} out of range")
        return problems


WORKLOADS = {
    SapChurn.name: SapChurn,
    SapRefresh.name: SapRefresh,
    AllocSweep.name: AllocSweep,
}
