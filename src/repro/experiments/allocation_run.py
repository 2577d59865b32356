"""Fig. 5: fill the address space until the first clash.

"Nodes in this graph were chosen at random as the originator of a
session, and the TTL for the session was chosen randomly from the
following distributions ... In this simulation we assume no packet
loss" — so every site sees exactly the sessions whose scope covers it,
and the only clash causes are scope asymmetry and imperfect
partitioning.

For each (algorithm, distribution, space size) we repeatedly allocate
sessions at random sites until a new session clashes with a live one,
and report the mean number of successful allocations before that first
clash, on the fig. 5 log/log axes.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.allocator import Allocator
from repro.core.session import Session
from repro.experiments.ttl_distributions import TtlDistribution
from repro.experiments.world import AllocationWorld
from repro.routing.scoping import ScopeMap

AllocatorFactory = Callable[[int, np.random.Generator], Allocator]


def allocations_before_first_clash(
    scope_map: ScopeMap,
    allocator_factory: AllocatorFactory,
    space_size: int,
    distribution: TtlDistribution,
    rng: np.random.Generator,
    max_allocations: Optional[int] = None,
) -> int:
    """One trial: successful allocations before the first clash.

    Args:
        scope_map: topology scoping (all sites share it — "no loss").
        allocator_factory: builds the algorithm under test.
        space_size: addresses available.
        distribution: TTL distribution for new sessions.
        rng: trial RNG (drives sources, TTLs and the allocator).
        max_allocations: optional cap (for bounded benchmark time);
            reaching it returns the cap.

    Returns:
        Number of clash-free allocations made before the first clash.
    """
    allocator = allocator_factory(space_size, rng)
    world = AllocationWorld(scope_map, space_size)
    num_nodes = scope_map.num_nodes
    cap = max_allocations if max_allocations is not None else (
        space_size * 16
    )
    for count in range(cap):
        source = int(rng.integers(0, num_nodes))
        ttl = distribution.sample(rng)
        visible = world.visible_at(source)
        result = allocator.allocate(ttl, visible)
        session = Session(address=result.address, ttl=ttl, source=source)
        if world.clashes(session):
            return count
        world.add(session)
    return cap


@dataclass
class Fig5Row:
    """One fig. 5 data point."""

    algorithm: str
    distribution: str
    space_size: int
    mean_allocations: float
    trials: int


def fig5_cell(
    scope_map: ScopeMap,
    factory: AllocatorFactory,
    algo_name: str,
    distribution: TtlDistribution,
    space_size: int,
    trials: int,
    seed: int = 0,
    max_allocations: Optional[int] = None,
) -> Fig5Row:
    """One fig. 5 (algorithm, distribution, space size) cell.

    The per-trial RNG is derived from the cell coordinates, not from
    any sweep-iteration state, so a cell computes the same row whether
    it runs inside the serial :func:`fig5_run` loop or on a worker
    process.
    """
    results = []
    for trial in range(trials):
        rng = np.random.default_rng(
            (seed, zlib.crc32(algo_name.encode()), space_size,
             trial, len(distribution.values))
        )
        results.append(allocations_before_first_clash(
            scope_map, factory, space_size, distribution,
            rng, max_allocations=max_allocations,
        ))
    return Fig5Row(
        algorithm=algo_name,
        distribution=distribution.name,
        space_size=space_size,
        mean_allocations=float(np.mean(results)),
        trials=trials,
    )


def fig5_run(
    scope_map: ScopeMap,
    algorithms: Dict[str, AllocatorFactory],
    space_sizes: Sequence[int],
    distributions: Sequence[TtlDistribution],
    trials: int = 5,
    seed: int = 0,
    max_allocations: Optional[int] = None,
) -> List[Fig5Row]:
    """The full fig. 5 sweep.

    Returns one row per (algorithm, distribution, space size) with the
    mean allocations-before-clash over ``trials`` trials.
    """
    rows: List[Fig5Row] = []
    for algo_name, factory in algorithms.items():
        for distribution in distributions:
            for space_size in space_sizes:
                rows.append(fig5_cell(
                    scope_map, factory, algo_name, distribution,
                    space_size, trials, seed=seed,
                    max_allocations=max_allocations,
                ))
    return rows


def _cell_scope_map(params: dict) -> ScopeMap:
    """Rebuild a topology scope map from a cell's params."""
    from repro.topology.mapfile import load_map
    from repro.topology.mbone import MboneParams, generate_mbone

    if params["map"]:
        topology = load_map(params["map"])
    else:
        topology = generate_mbone(MboneParams(
            total_nodes=params["nodes"], seed=params["seed"]))
    return ScopeMap.from_topology(topology)


def fig5_cell_job(params: dict) -> Fig5Row:
    """One fig. 5 cell rebuilt from plain params (``repro fig5 --jobs``).

    The trial streams are keyed on the cell coordinates (exactly the
    derivation :func:`fig5_cell` uses), so a parallel fig. 5 is
    byte-identical to the serial sweep at any worker count.
    """
    from repro.experiments.algorithms import algorithm_factory
    from repro.experiments.ttl_distributions import distribution_by_name

    return fig5_cell(
        _cell_scope_map(params),
        algorithm_factory(params["algorithm"]),
        params["algorithm"],
        distribution_by_name(params["distribution"]),
        params["space_size"],
        params["trials"],
        seed=params["seed"],
    )
