"""Figs. 12 and 13: steady-state behaviour under session churn.

The paper's method (§2.6):

1. allocate n sessions with TTLs from the distribution and random
   sources, without regard for clashes;
2. re-allocate the addresses using the algorithm under test so that no
   clashes exist;
3. remove one existing session chosen at random;
4. allocate a new session;
5. repeat from 3 until n sessions have been replaced, keeping score of
   the address clashes.

The process is repeated to estimate, per (algorithm, space size), the
clash probability over one "mean session lifetime" (n replacements),
and the n at which that probability crosses 0.5.

Fig. 13's upper bound replaces a removed session with one from the
*same site with the same TTL*, testing adaptation limits rather than
the adaptation mechanism itself.
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.allocator import Allocator
from repro.core.session import Session
from repro.experiments.ttl_distributions import TtlDistribution
from repro.experiments.world import AllocationWorld
from repro.routing.scoping import ScopeMap

AllocatorFactory = Callable[[int, np.random.Generator], Allocator]

#: Give up re-drawing a clash-free address after this many attempts;
#: the slot is then left with a clashing allocation (the space is
#: effectively beyond saturation for the algorithm).
MAX_REDRAWS = 64


def _allocate_clash_free(world: AllocationWorld, allocator: Allocator,
                         source: int, ttl: int,
                         rng: np.random.Generator) -> Tuple[Session, bool]:
    """Allocate at (source, ttl), redrawing on clash.

    Returns (session, clashed_first_try).
    """
    clashed_first = False
    visible = world.visible_at(source)
    for attempt in range(MAX_REDRAWS):
        result = allocator.allocate(ttl, visible)
        session = Session(address=result.address, ttl=ttl, source=source)
        if not world.clashes(session):
            return session, clashed_first
        if attempt == 0:
            clashed_first = True
    # Space saturated: accept the clash so the simulation can proceed.
    return session, clashed_first


def steady_state_clash_probability(
    scope_map: ScopeMap,
    allocator_factory: AllocatorFactory,
    space_size: int,
    n_sessions: int,
    distribution: TtlDistribution,
    trials: int = 20,
    seed: int = 0,
    same_site_replacement: bool = False,
) -> float:
    """P(at least one clash while replacing n sessions).

    Args:
        same_site_replacement: fig. 13's upper-bound variant — the new
            session reuses the removed session's site and TTL.
    """
    if n_sessions <= 0:
        raise ValueError(f"n_sessions must be positive: {n_sessions}")
    clash_trials = 0
    for trial in range(trials):
        rng = np.random.default_rng((seed, space_size, n_sessions, trial))
        if _one_trial_has_clash(scope_map, allocator_factory, space_size,
                                n_sessions, distribution, rng,
                                same_site_replacement):
            clash_trials += 1
    return clash_trials / trials


def _one_trial_has_clash(scope_map, allocator_factory, space_size,
                         n_sessions, distribution, rng,
                         same_site_replacement) -> bool:
    allocator = allocator_factory(space_size, rng)
    world = AllocationWorld(scope_map, space_size)
    num_nodes = scope_map.num_nodes
    # Steps 1+2 fused: allocate each session with the algorithm,
    # redrawing until clash-free (equivalent to "re-allocate the
    # addresses ... so that no clashes exist").
    for __ in range(n_sessions):
        source = int(rng.integers(0, num_nodes))
        ttl = distribution.sample(rng)
        session, __clash = _allocate_clash_free(world, allocator, source,
                                                ttl, rng)
        world.add(session)
    # Steps 3-5: churn.
    for __ in range(n_sessions):
        victim_slot = world.random_slot(rng)
        victim = world.remove_at(victim_slot)
        if same_site_replacement:
            source, ttl = victim.source, victim.ttl
        else:
            source = int(rng.integers(0, num_nodes))
            ttl = distribution.sample(rng)
        session, clashed = _allocate_clash_free(world, allocator, source,
                                                ttl, rng)
        world.add(session)
        if clashed:
            return True
    return False


def allocations_at_half_clash(
    scope_map: ScopeMap,
    allocator_factory: AllocatorFactory,
    space_size: int,
    distribution: TtlDistribution,
    trials: int = 20,
    seed: int = 0,
    same_site_replacement: bool = False,
    n_max: Optional[int] = None,
) -> int:
    """The n at which steady-state clash probability crosses 0.5.

    Geometric bracketing followed by bisection; this is the y value of
    one fig. 12/13 point.
    """
    n_cap = n_max if n_max is not None else space_size * 4

    def probability(n: int) -> float:
        return steady_state_clash_probability(
            scope_map, allocator_factory, space_size, n, distribution,
            trials=trials, seed=seed,
            same_site_replacement=same_site_replacement,
        )

    # Bracket by doubling.
    lo, hi = 1, 2
    while hi < n_cap and probability(hi) < 0.5:
        lo = hi
        hi *= 2
    hi = min(hi, n_cap)
    # Bisect [lo, hi); lo is below threshold, hi at/above (or capped).
    while hi - lo > max(1, lo // 8):
        mid = (lo + hi) // 2
        if probability(mid) < 0.5:
            lo = mid
        else:
            hi = mid
    return lo


@dataclass
class SteadyStateRow:
    """One fig. 12/13 data point."""

    algorithm: str
    space_size: int
    allocations_at_half: int


def steady_cell(
    scope_map: ScopeMap,
    factory: AllocatorFactory,
    algo_name: str,
    space_size: int,
    distribution: TtlDistribution,
    trials: int = 10,
    seed: int = 0,
    same_site_replacement: bool = False,
    derive_seed: bool = True,
) -> SteadyStateRow:
    """One fig. 12/13 (algorithm, space size) point.

    Seeded from the cell coordinates alone (the sweep's historical
    ``seed ^ crc32(algorithm)`` derivation), so the cell computes the
    same row serially or on a worker process.  ``derive_seed=False``
    keeps the raw seed — the ``repro steady-state`` CLI's historical
    behaviour — so its ``--jobs`` path reproduces the serial table
    byte for byte.
    """
    effective_seed = seed
    if derive_seed:
        effective_seed = seed ^ zlib.crc32(algo_name.encode())
    value = allocations_at_half_clash(
        scope_map, factory, space_size, distribution,
        trials=trials,
        seed=effective_seed,
        same_site_replacement=same_site_replacement,
    )
    return SteadyStateRow(algo_name, space_size, value)


def steady_state_sweep(
    scope_map: ScopeMap,
    algorithms: Dict[str, AllocatorFactory],
    space_sizes: Sequence[int],
    distribution: TtlDistribution,
    trials: int = 10,
    seed: int = 0,
    same_site_replacement: bool = False,
) -> List[SteadyStateRow]:
    """The full fig. 12 (or, with same-site replacement, fig. 13) sweep."""
    rows: List[SteadyStateRow] = []
    for algo_name, factory in algorithms.items():
        for space_size in space_sizes:
            rows.append(steady_cell(
                scope_map, factory, algo_name, space_size, distribution,
                trials=trials, seed=seed,
                same_site_replacement=same_site_replacement,
            ))
    return rows


def steady_cell_job(params: dict) -> SteadyStateRow:
    """One fig. 12/13 point rebuilt from plain params.

    The ``repro steady-state --jobs`` cell; deterministic in the params.
    """
    from repro.experiments.algorithms import algorithm_factory
    from repro.experiments.allocation_run import _cell_scope_map
    from repro.experiments.ttl_distributions import distribution_by_name

    return steady_cell(
        _cell_scope_map(params),
        algorithm_factory(params["algorithm"]),
        params["algorithm"],
        params["space_size"],
        distribution_by_name(params["distribution"]),
        trials=params["trials"],
        seed=params["seed"],
        same_site_replacement=params["same_site"],
        derive_seed=params["derive_seed"],
    )
