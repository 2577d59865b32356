"""Allocation through the full SAP machinery (closing the loop).

Figs. 5/12/13 assume instant, lossless visibility — every site sees
exactly the sessions whose scope covers it.  §2.3 models loss and
delay analytically.  This experiment runs the *actual* stack instead:
session directories on the simulated Mbone, allocating through their
SAP caches while announcements propagate with real loss, delay and
re-announcement schedules.

It measures the quantity the paper's whole argument turns on — how
many clashes occur per allocation as a function of announcement loss
and the announcement strategy (fixed interval vs the §4 exponential
back-off) — with the clash protocol optionally repairing them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.core.address_space import MulticastAddressSpace
from repro.core.clash import find_clashing_pairs
from repro.core.iprma import StaticIprmaAllocator
from repro.core.session import Session
from repro.experiments.ttl_distributions import DS4, TtlDistribution
from repro.routing.scoping import ScopeMap
from repro.sap.announcer import (
    ExponentialBackoffStrategy,
    FixedIntervalStrategy,
)
from repro.sap.directory import SessionDirectory
from repro.sim.adapters import scoped_receiver_map
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel
from repro.sim.rng import RandomStreams
from repro.routing.spt import ShortestPathForest
from repro.topology.graph import Topology

_STRATEGIES = ("fixed", "backoff")


@dataclass
class SapLoopConfig:
    """One full-stack run.

    Attributes:
        num_directories: how many sites run a directory.
        sessions_per_directory: sessions each creates.
        space_size: allocation space.
        loss: end-to-end announcement loss probability.
        strategy: "fixed" (10-minute interval) or "backoff" (§4).
        inter_arrival: mean gap between session creations (seconds);
            creations are spread uniformly over the run.
        settle_time: extra simulated time after the last creation so
            the clash protocol can repair races.
        distribution: TTL distribution for created sessions.
        seed: RNG seed.
        enable_clash_protocol: run the three-phase protocol.
    """

    num_directories: int = 20
    sessions_per_directory: int = 5
    space_size: int = 512
    loss: float = 0.02
    strategy: str = "fixed"
    inter_arrival: float = 30.0
    settle_time: float = 1200.0
    distribution: TtlDistribution = DS4
    seed: int = 0
    enable_clash_protocol: bool = True

    def __post_init__(self) -> None:
        if self.strategy not in _STRATEGIES:
            raise ValueError(f"strategy must be one of {_STRATEGIES}")
        if not 0.0 <= self.loss < 1.0:
            raise ValueError(f"loss must be in [0, 1): {self.loss}")
        if self.num_directories < 2:
            raise ValueError("need at least two directories")


@dataclass
class SapLoopResult:
    """Outcome of one run."""

    allocations: int
    residual_clashing_pairs: int
    address_changes: int
    announcements_sent: int
    announcements_lost: int
    clash_rate: float


def run_sap_in_the_loop(topology: Topology, scope_map: ScopeMap,
                        config: SapLoopConfig,
                        sanitizer=None) -> SapLoopResult:
    """Run the experiment; see module docstring.

    Args:
        sanitizer: optional
            :class:`repro.sanitize.SanitizerContext`; when given, the
            whole stack runs under shadow-state checking and the
            convergence-time cache cross-check runs before returning.
    """
    rng = np.random.default_rng(config.seed)
    scheduler = EventScheduler()
    if sanitizer is not None:
        sanitizer.attach_scheduler(scheduler)
    delay_forest = ShortestPathForest(topology, weight="delay")
    network = NetworkModel(
        scheduler,
        scoped_receiver_map(scope_map, delay_forest),
        streams=RandomStreams(config.seed),
        loss_rate=config.loss,
    )
    if sanitizer is not None:
        sanitizer.attach_network(network)
    space = MulticastAddressSpace.abstract(config.space_size)

    def strategy_factory():
        if config.strategy == "backoff":
            return ExponentialBackoffStrategy()
        return FixedIntervalStrategy(600.0)

    nodes = rng.choice(topology.num_nodes,
                       size=config.num_directories, replace=False)
    directories: List[SessionDirectory] = []
    for node in nodes:
        node = int(node)
        directories.append(SessionDirectory(
            node, scheduler, network,
            StaticIprmaAllocator.seven_band(
                config.space_size, np.random.default_rng((config.seed,
                                                          node))),
            space,
            strategy_factory=strategy_factory,
            enable_clash_protocol=config.enable_clash_protocol,
            rng=np.random.default_rng((config.seed, node, 1)),
        ))
        if sanitizer is not None:
            sanitizer.watch_directory(directories[-1])

    # Schedule session creations spread over the arrival window.
    total = config.num_directories * config.sessions_per_directory
    creations: List[Tuple[float, int, int]] = []
    for index in range(total):
        when = float(rng.uniform(0, config.inter_arrival * total))
        directory_index = index % config.num_directories
        ttl = config.distribution.sample(rng)
        creations.append((when, directory_index, ttl))
    for when, directory_index, ttl in creations:
        directory = directories[directory_index]
        # Creations are fire-and-forget; nothing ever cancels them.
        scheduler.schedule_at(  # simlint: disable=discarded-handle
            when,
            lambda d=directory, t=ttl: d.create_session(
                f"s@{d.node}", ttl=t
            ),
        )

    horizon = config.inter_arrival * total + config.settle_time
    scheduler.run(until=horizon, max_events=2_000_000)
    if sanitizer is not None:
        sanitizer.check_convergence(directories)

    # Residual clashes: pairs of live sessions with the same address
    # and overlapping scopes that the protocol failed to separate.
    live: List[Session] = [own.session
                           for directory in directories
                           for own in directory.own_sessions()]
    clashing = find_clashing_pairs(live, scope_map)
    address_changes = sum(d.address_changes for d in directories)
    return SapLoopResult(
        allocations=len(live),
        residual_clashing_pairs=len(clashing),
        address_changes=address_changes,
        announcements_sent=network.packets_sent,
        announcements_lost=network.packets_lost,
        clash_rate=len(clashing) / max(1, len(live)),
    )
