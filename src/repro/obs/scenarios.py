"""The steady churn harness.

A small full mesh where the adaptive AIPR-1 allocator runs against a
deliberately tight address space while sessions expire and are
replaced, so allocation, cache hits and misses and all three clash
phases accumulate under continuous load.  The benchmark's
``sap-churn`` workload builds it; tests/test_sap_directory.py pins it.
"""

from __future__ import annotations

from typing import List, Optional


def build_steady(seed: int, num_sites: int = 8, space_size: int = 16,
                 sessions_per_site: int = 6, horizon: float = 600.0):
    """Construct the steady churn harness; run it with
    ``scheduler.run(until=horizon)``.

    Every created session has a finite lifetime, so over the horizon
    the directories continuously withdraw and re-allocate — the fig. 12
    steady state, but driven through the real event kernel so the
    scheduler, network, cache and clash protocol are all under load at
    once.  A partition that heals midway makes both sides allocate
    from the same tight space while split, so the clash protocol's
    counters accumulate too.

    Returns ``(scheduler, directories)``.
    """
    from repro.core.address_space import MulticastAddressSpace
    from repro.core.adaptive import AdaptiveIprmaAllocator
    from repro.sap.announcer import FixedIntervalStrategy
    from repro.sap.directory import SessionDirectory
    from repro.sim.events import EventScheduler
    from repro.sim.network import NetworkModel
    from repro.sim.rng import RandomStreams

    streams = RandomStreams(seed)
    scheduler = EventScheduler()

    def receiver_map(source: int, ttl: int):
        # Full mesh with deterministic, asymmetric per-pair delays.
        return [(node, 0.01 + 0.002 * ((source + 3 * node) % 5))
                for node in range(num_sites) if node != source]

    network = NetworkModel(scheduler, receiver_map, streams=streams,
                           loss_rate=0.01, jitter=0.01)
    space = MulticastAddressSpace.abstract(space_size)

    directories: List[SessionDirectory] = []
    for node in range(num_sites):
        directories.append(SessionDirectory(
            node, scheduler, network,
            AdaptiveIprmaAllocator.aipr1(
                space_size, rng=streams.get(f"alloc.{node}")
            ),
            space,
            strategy_factory=lambda: FixedIntervalStrategy(20.0),
            rng=streams.get(f"dir.{node}"),
        ))

    # The key keeps the name of the package this harness was written
    # for; renaming it would change every draw.
    workload = streams.get("obs.workload")

    def make_creation(directory: SessionDirectory, name: str,
                      lifetime: Optional[float]):
        def create() -> None:
            directory.create_session(name, ttl=127, lifetime=lifetime)
        return create

    # Sessions arrive through the first 60% of the horizon and live
    # 60-180 simulated seconds each, so the space keeps turning over.
    index = 0
    for node, directory in enumerate(directories):
        for __ in range(sessions_per_site):
            when = float(workload.uniform(0.0, horizon * 0.6))
            lifetime = float(workload.uniform(60.0, 180.0))
            scheduler.schedule_at(  # simlint: disable=discarded-handle
                when,
                make_creation(directory, f"s{index}@{node}", lifetime),
            )
            index += 1

    # Split the mesh while load is arriving, heal it mid-run (the §3
    # "network partition has been resolved recently" clash source).
    half = range(num_sites // 2)
    scheduler.schedule_at(  # simlint: disable=discarded-handle
        horizon * 0.25, lambda: network.partition(half)
    )
    scheduler.schedule_at(  # simlint: disable=discarded-handle
        horizon * 0.45, network.heal
    )
    return scheduler, directories
