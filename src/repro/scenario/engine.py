"""Run a :class:`~repro.scenario.spec.ScenarioSpec` on the real stack.

One entry point, :func:`run_spec`, and one determinism contract: a run
is a pure function of ``(spec, seed)``.  Every engine-level draw —
arrivals, lifetimes, site choice, TTL choice, cascade orientation,
churn victims — comes from a stream keyed under
``scenario/<spec-digest>/...``, so two runs of the same spec and seed
are byte-identical and a violating run replays from its emitted JSON
artifact alone.

Synthetic specs build a full-mesh substrate modelled on the obs steady
harness (deterministic asymmetric per-pair delays, tight abstract
space), layer the spec's dynamics on top (churn, partition storms,
loss ramps, personas) and run under the SAN2xx sanitizers plus the
SCN9xx :class:`~repro.scenario.invariants.ScenarioMonitor`.  Legacy
kinds (``kernel``/``clash``/``steady``) dispatch to the repo's
original harnesses, so the three hand-coded scenarios are expressible
as committed spec fixtures whose traces match the originals byte for
byte.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.sanitize.report import Violation
from repro.scenario.arrivals import sample_arrivals, sample_lifetime
from repro.scenario.demand import sample_site, sample_ttl, site_weights
from repro.scenario.invariants import ScenarioMonitor
from repro.scenario.personas import make_persona
from repro.scenario.rules import (
    SCENARIO_ADVISORY_CODES,
    SCENARIO_RUNTIME_CODES,
)
from repro.scenario.spec import ScenarioSpec

#: Default per-run event budget — the deterministic analogue of a
#: wall-clock timeout (wall clocks are banned; see SIM103).  A run
#: stopping here instead of at its horizon reports advisory SCN911.
DEFAULT_MAX_EVENTS = 400_000

#: Events per scheduler chunk between circuit-breaker checks.
_CHUNK_EVENTS = 2048

#: The livelock circuit breaker trips at this many address moves per
#: site on average: adversarial retreat ping-pong moves addresses at
#: network-delay timescale, so a run past this bound has its verdict
#: (starvation and/or residual clash) long since determined and the
#: remaining budget would only re-confirm it.
_MOVES_PER_SITE_CAP = 96


@dataclass
class ScenarioRun:
    """Everything one :func:`run_spec` call produced."""

    spec: ScenarioSpec
    seed: int
    violations: List[Violation] = field(default_factory=list)
    trace: str = ""
    events_run: int = 0
    sessions_created: int = 0
    horizon_reached: bool = True
    max_events: int = DEFAULT_MAX_EVENTS

    @property
    def digest(self) -> str:
        return self.spec.digest()

    @property
    def hard_violations(self) -> List[Violation]:
        """Violations that fail the run (advisory SCN codes excluded)."""
        return [violation for violation in self.violations
                if violation.code not in SCENARIO_ADVISORY_CODES]

    @property
    def clean(self) -> bool:
        return not self.hard_violations

    def codes(self) -> List[str]:
        """Sorted distinct violation codes (advisory included)."""
        return sorted({violation.code for violation in self.violations})

    def trace_sha256(self) -> str:
        return hashlib.sha256(self.trace.encode("utf-8")).hexdigest()

    def artifact(self) -> Dict[str, Any]:
        """The replayable counterexample: everything a re-run needs."""
        return {
            "spec": self.spec.to_dict(),
            "seed": self.seed,
            "max_events": self.max_events,
            "digest": self.digest,
            "codes": self.codes(),
            "trace_sha256": self.trace_sha256(),
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe run report (no trace body; its hash instead)."""
        return {
            "name": self.spec.name,
            "kind": self.spec.kind,
            "digest": self.digest,
            "seed": self.seed,
            "events_run": self.events_run,
            "sessions_created": self.sessions_created,
            "horizon_reached": self.horizon_reached,
            "clean": self.clean,
            "codes": self.codes(),
            "violations": [
                {"code": violation.code, "rule": violation.rule,
                 "time": round(violation.time, 6),
                 "message": violation.message}
                for violation in self.violations
            ],
            "trace_lines": self.trace.count("\n"),
            "trace_sha256": self.trace_sha256(),
        }

    def summary(self) -> str:
        codes = ",".join(self.codes()) or "clean"
        return (f"{self.spec.name}[{self.digest}] seed={self.seed}: "
                f"{codes} (sessions={self.sessions_created}, "
                f"events={self.events_run})")


def run_spec(spec: ScenarioSpec, seed: int,
             max_events: int = DEFAULT_MAX_EVENTS) -> ScenarioRun:
    """Validate and run ``spec``; returns the full run record.

    Raises:
        ValueError: if the spec fails validation.
    """
    spec.validate()
    if spec.kind == "kernel":
        run = _run_kernel(spec, seed)
    elif spec.kind == "clash":
        run = _run_clash(spec, seed)
    elif spec.kind == "steady":
        run = _run_steady(spec, seed, max_events)
    else:
        run = _run_synthetic(spec, seed, max_events)
    run.max_events = max_events
    return run


# ----------------------------------------------------------------------
# The synthetic engine
# ----------------------------------------------------------------------
def _run_synthetic(spec: ScenarioSpec, seed: int,
                   max_events: int) -> ScenarioRun:
    from repro.core.adaptive import AdaptiveIprmaAllocator
    from repro.core.address_space import MulticastAddressSpace
    from repro.sanitize.context import SanitizerContext
    from repro.sap.announcer import FixedIntervalStrategy
    from repro.sap.cache import SessionCache
    from repro.sap.directory import SessionDirectory
    from repro.sim.events import EventScheduler
    from repro.sim.network import NetworkModel
    from repro.sim.rng import RandomStreams

    prefix = spec.stream_prefix()
    topo = spec.topology
    num_sites = topo.num_sites
    streams = RandomStreams(seed)
    scheduler = EventScheduler()
    sanitizer = SanitizerContext(scenario=f"scenario:{spec.name}")
    sanitizer.attach_scheduler(scheduler)

    def receiver_map(source: int, ttl: int):
        # Full mesh with deterministic, asymmetric per-pair delays
        # (the obs steady harness's substrate).
        return [(node, 0.01 + 0.002 * ((source + 3 * node) % 5))
                for node in range(num_sites) if node != source]

    network = NetworkModel(scheduler, receiver_map, streams=streams,
                           loss_rate=topo.loss_rate, jitter=topo.jitter)
    sanitizer.attach_network(network)
    space = MulticastAddressSpace.abstract(spec.space_size)
    persona_of = {assignment.node: assignment.persona
                  for assignment in spec.personas}

    directories: List[SessionDirectory] = []
    for node in range(num_sites):
        directory = SessionDirectory(
            node, scheduler, network,
            AdaptiveIprmaAllocator.aipr1(
                spec.space_size,
                rng=streams.get(f"{prefix}/alloc/{node}"),
            ),
            space,
            strategy_factory=lambda: FixedIntervalStrategy(
                spec.announce_interval
            ),
            cache=SessionCache(timeout=spec.cache_timeout),
            rng=streams.get(f"{prefix}/dir/{node}"),
        )
        sanitizer.watch_directory(directory)
        if node in persona_of:
            directory._persona = make_persona(persona_of[node])
        directories.append(directory)

    monitor = ScenarioMonitor(spec)
    monitor.watch(directories, network)

    sessions_created = _schedule_workload(spec, streams, scheduler,
                                          directories)
    _schedule_dynamics(spec, streams, scheduler, network)

    truncated_by = _run_chunked(spec, scheduler, directories,
                                max_events)
    horizon_reached = scheduler.now >= spec.horizon

    violations = list(sanitizer.violations)
    if not horizon_reached:
        violations.append(Violation(
            code="SCN911", rule=SCENARIO_RUNTIME_CODES["SCN911"],
            message=(f"stopped at t={scheduler.now:.4f} of "
                     f"{spec.horizon:g} ({truncated_by})"),
            time=scheduler.now,
        ))
    violations.extend(monitor.finish(scheduler.now))

    trace = _mesh_trace(_header(spec, seed), directories, violations,
                        network=network, scheduler=scheduler)
    return ScenarioRun(
        spec=spec, seed=seed, violations=violations, trace=trace,
        events_run=scheduler.events_run,
        sessions_created=sessions_created,
        horizon_reached=horizon_reached,
    )


def _run_chunked(spec: ScenarioSpec, scheduler, directories,
                 max_events: int) -> str:
    """Run to the horizon in chunks, checking circuit breakers.

    Deterministic: chunk boundaries fall at fixed event counts and
    every breaker reads only simulation state, so chunking never
    perturbs the trace — it only decides how early a doomed run
    stops.  Returns the truncation reason ("" if the horizon was
    reached or the queue drained).
    """
    persona_nodes = {assignment.node
                     for assignment in spec.personas}
    moves_cap = _MOVES_PER_SITE_CAP * spec.topology.num_sites
    flash = spec.arrival.process == "flash-crowd"
    base = scheduler.events_run
    while scheduler.now < spec.horizon:
        used = scheduler.events_run - base
        if used >= max_events:
            return f"event budget of {max_events} exhausted"
        scheduler.run(until=spec.horizon,
                      max_events=min(_CHUNK_EVENTS, max_events - used))
        total_moves = sum(directory.address_changes
                          for directory in directories)
        if total_moves >= moves_cap:
            return (f"move budget of {moves_cap} exhausted "
                    f"(retreat livelock)")
        if flash and any(
            directory.address_changes >= spec.starvation_moves
            for directory in directories
            if directory.node not in persona_nodes
        ):
            return "starvation verdict already determined"
    return ""


def _schedule_workload(spec: ScenarioSpec, streams, scheduler,
                       directories) -> int:
    """Pre-sample the whole workload, then schedule it.

    Drawing everything up front (rather than inside callbacks) fixes
    the draw order independently of event interleaving, which is what
    lets one stream per concern replay exactly.
    """
    prefix = spec.stream_prefix()
    arrival_times = sample_arrivals(
        spec.arrival, spec.horizon, streams.get(f"{prefix}/arrivals")
    )
    lifetime_rng = streams.get(f"{prefix}/lifetimes")
    demand_rng = streams.get(f"{prefix}/demand")
    weights = site_weights(spec.demand, spec.topology.num_sites,
                           streams.get(f"{prefix}/cascade"))

    def make_creation(directory, name: str, ttl: int, lifetime: float):
        def create() -> None:
            directory.create_session(name, ttl=ttl, lifetime=lifetime)
        return create

    for index, when in enumerate(arrival_times):
        site = sample_site(spec.demand, weights, demand_rng)
        ttl = sample_ttl(spec.demand, demand_rng)
        lifetime = sample_lifetime(spec.lifetime, lifetime_rng)
        scheduler.schedule_at(  # simlint: disable=discarded-handle
            when,
            make_creation(directories[site], f"s{index}@{site}",
                          ttl, lifetime),
        )

    if spec.expiry_sweep > 0:
        def sweep() -> None:
            for directory in directories:
                directory.expire_cache()
            if scheduler.now + spec.expiry_sweep < spec.horizon:
                scheduler.schedule(  # simlint: disable=discarded-handle
                    spec.expiry_sweep, sweep
                )
        scheduler.schedule(  # simlint: disable=discarded-handle
            spec.expiry_sweep, sweep
        )
    return len(arrival_times)


def _schedule_dynamics(spec: ScenarioSpec, streams, scheduler,
                       network) -> None:
    """Churn, partition storms and loss ramps from the spec."""
    prefix = spec.stream_prefix()
    topo = spec.topology

    if topo.churn_events:
        churn_rng = streams.get(f"{prefix}/churn")
        for __ in range(topo.churn_events):
            victim = int(churn_rng.integers(topo.num_sites))
            down_at = float(churn_rng.uniform(0.0, spec.horizon))
            scheduler.schedule_at(  # simlint: disable=discarded-handle
                down_at, _detacher(network, victim)
            )
            scheduler.schedule_at(  # simlint: disable=discarded-handle
                down_at + topo.churn_downtime, _attacher(network, victim)
            )

    if topo.partition_storms:
        half = range(topo.num_sites // 2)
        cycle = spec.horizon / topo.partition_storms
        for storm in range(topo.partition_storms):
            start = (storm + (1.0 - topo.partition_duty) / 2.0) * cycle
            scheduler.schedule_at(  # simlint: disable=discarded-handle
                start, _partitioner(network, half)
            )
            scheduler.schedule_at(  # simlint: disable=discarded-handle
                start + cycle * topo.partition_duty, network.heal
            )

    if topo.loss_ramp_to >= 0.0:
        steps = 16
        for step in range(1, steps + 1):
            frac = step / steps
            rate = (topo.loss_rate
                    + (topo.loss_ramp_to - topo.loss_rate) * frac)
            scheduler.schedule_at(  # simlint: disable=discarded-handle
                spec.horizon * frac * 0.999, _loss_setter(network, rate)
            )


def _detacher(network, node: int):
    return lambda: network.detach(node)


def _attacher(network, node: int):
    return lambda: network.attach(node)


def _partitioner(network, group):
    return lambda: network.partition(group)


def _loss_setter(network, rate: float):
    return lambda: network.set_loss_rate(rate)


# ----------------------------------------------------------------------
# Canonical traces
# ----------------------------------------------------------------------
def _header(spec: ScenarioSpec, seed: int) -> str:
    return (f"# scenario {spec.name} kind={spec.kind} "
            f"digest={spec.digest()} seed={seed}")


def _mesh_trace(header: str, directories, violations,
                network=None, scheduler=None) -> str:
    """The canonical end-state trace for full-mesh harness runs.

    Shared between the synthetic engine and the legacy ``steady``
    dispatch, so "the engine did not perturb the harness" is a
    byte-equality check on this text.
    """
    from repro.experiments.world import mesh_clashing_pairs

    lines = [header]
    for directory in directories:
        lines.append(
            f"site {directory.node}: "
            f"own={len(directory.own_sessions())} "
            f"cached={len(directory.cache)} "
            f"moves={directory.address_changes} "
            f"recv={directory.announcements_received}"
        )
    live = [own.session for directory in directories
            for own in directory.own_sessions()]
    lines.append(f"clash-pairs={len(mesh_clashing_pairs(live))}")
    if network is not None:
        lines.append(
            f"net: sent={network.packets_sent} "
            f"delivered={network.packets_delivered} "
            f"lost={network.packets_lost}"
        )
    if scheduler is not None:
        lines.append(f"clock: now={scheduler.now:.6f} "
                     f"events={scheduler.events_run}")
    lines.extend(violation.format() for violation in violations)
    return "\n".join(lines) + "\n"


def clash_trace(header: str, result) -> str:
    """Canonical rendering of a SAP-in-the-loop result."""
    return (
        f"{header}\n"
        f"sap-loop: allocations={result.allocations} "
        f"clash_pairs={result.residual_clashing_pairs} "
        f"moves={result.address_changes} "
        f"sent={result.announcements_sent} "
        f"lost={result.announcements_lost} "
        f"clash_rate={result.clash_rate:.6f}\n"
    )


# ----------------------------------------------------------------------
# Legacy dispatch — the four hand-coded harnesses as spec kinds
# ----------------------------------------------------------------------
def _run_kernel(spec: ScenarioSpec, seed: int) -> ScenarioRun:
    from repro.lint.determinism import run_scenario as run_kernel

    params = spec.legacy_params()
    trace = run_kernel(
        seed=seed,
        num_sites=int(params.get("num_sites", 6)),
        sessions_per_site=int(params.get("sessions_per_site", 3)),
        space_size=int(params.get("space_size", 12)),
        horizon=float(params.get("horizon", 240.0)),
    )
    return ScenarioRun(spec=spec, seed=seed, trace=trace,
                       sessions_created=(
                           int(params.get("num_sites", 6))
                           * int(params.get("sessions_per_site", 3))
                       ))


def _run_clash(spec: ScenarioSpec, seed: int) -> ScenarioRun:
    from repro.experiments.sap_in_the_loop import (
        SapLoopConfig,
        run_sap_in_the_loop,
    )
    from repro.routing.scoping import ScopeMap
    from repro.topology.mbone import MboneParams, generate_mbone

    params = spec.legacy_params()
    topology = generate_mbone(MboneParams(
        total_nodes=int(params.get("total_nodes", 60)), seed=seed
    ))
    scope_map = ScopeMap.from_topology(topology)
    config = SapLoopConfig(
        num_directories=int(params.get("num_directories", 8)),
        sessions_per_directory=int(
            params.get("sessions_per_directory", 3)
        ),
        space_size=int(params.get("space_size", 64)),
        loss=float(params.get("loss", 0.02)),
        strategy=str(params.get("strategy", "backoff")),
        inter_arrival=float(params.get("inter_arrival", 5.0)),
        settle_time=float(params.get("settle_time", 300.0)),
        seed=seed,
    )
    result = run_sap_in_the_loop(topology, scope_map, config)
    sessions = config.num_directories * config.sessions_per_directory
    return ScenarioRun(spec=spec, seed=seed,
                       trace=clash_trace(_header(spec, seed), result),
                       sessions_created=sessions)


def _run_steady(spec: ScenarioSpec, seed: int,
                max_events: int) -> ScenarioRun:
    from repro.obs.scenarios import build_steady

    params = spec.legacy_params()
    horizon = float(params.get("horizon", 600.0))
    scheduler, directories = build_steady(
        seed, None,
        num_sites=int(params.get("num_sites", 8)),
        space_size=int(params.get("space_size", 16)),
        sessions_per_site=int(params.get("sessions_per_site", 6)),
        horizon=horizon,
    )
    scheduler.run(until=horizon, max_events=max_events)
    trace = _mesh_trace(_header(spec, seed), directories, [],
                        scheduler=scheduler)
    sessions = (int(params.get("num_sites", 8))
                * int(params.get("sessions_per_site", 6)))
    return ScenarioRun(spec=spec, seed=seed, trace=trace,
                       events_run=scheduler.events_run,
                       sessions_created=sessions)
