"""Random scenario sampling for the fuzz loop.

One rule: a sampled spec is a pure function of the generator stream
it is handed, so the fuzzer's run ``i`` re-samples identically from
``derived_stream(f"scenario/fuzz/run-{i}", seed)`` no matter how runs
are split across worker processes.

The distribution is biased toward the interesting corners — partition
storms, churn, flash crowds, tight spaces and misbehaving personas
show up far more often than they would uniformly — because the point
is tripping SCN9xx/SAN2xx rules, not modelling a typical day on the
Mbone.
"""

from __future__ import annotations

import numpy as np

from repro.scenario.personas import PERSONA_NAMES
from repro.scenario.spec import (
    ARRIVAL_PROCESSES,
    DEMAND_SHAPES,
    LIFETIME_DISTRIBUTIONS,
    ArrivalSpec,
    DemandSpec,
    LifetimeSpec,
    PersonaAssignment,
    ScenarioSpec,
    TopologySpec,
)


def _choice(rng: np.random.Generator, options) -> str:
    return str(options[int(rng.integers(len(options)))])


def sample_spec(rng: np.random.Generator,
                name: str = "fuzz") -> ScenarioSpec:
    """One random, always-valid synthetic spec from ``rng``."""
    num_sites = int(rng.integers(4, 11))
    horizon = float(rng.integers(8, 17)) * 30.0

    arrival = ArrivalSpec(
        process=_choice(rng, ARRIVAL_PROCESSES),
        rate=round(float(rng.uniform(0.02, 0.12)), 4),
        diurnal_period=float(rng.integers(2, 7)) * 60.0,
        diurnal_depth=round(float(rng.uniform(0.3, 0.9)), 2),
        flash_start=round(float(rng.uniform(0.2, 0.6)), 2),
        flash_width=round(float(rng.uniform(0.05, 0.2)), 2),
        flash_multiplier=round(float(rng.uniform(4.0, 16.0)), 1),
    )
    lifetime = LifetimeSpec(
        distribution=_choice(rng, LIFETIME_DISTRIBUTIONS),
        mean=float(rng.integers(6, 19)) * 10.0,
        minimum=20.0,
        pareto_alpha=round(float(rng.uniform(1.2, 2.5)), 2),
    )
    demand = DemandSpec(
        shape=_choice(rng, DEMAND_SHAPES),
        hotspot_fraction=round(float(rng.uniform(0.15, 0.5)), 2),
        hotspot_weight=round(float(rng.uniform(0.6, 0.95)), 2),
        cascade_depth=int(rng.integers(4, 9)),
        cascade_bias=round(float(rng.uniform(0.55, 0.9)), 2),
    )
    topology = TopologySpec(
        num_sites=num_sites,
        loss_rate=round(float(rng.uniform(0.0, 0.05)), 3),
        jitter=round(float(rng.uniform(0.0, 0.02)), 3),
        churn_events=(int(rng.integers(1, 7))
                      if rng.random() < 0.35 else 0),
        churn_downtime=float(rng.integers(2, 9)) * 30.0,
        partition_storms=(int(rng.integers(1, 4))
                          if rng.random() < 0.45 else 0),
        partition_duty=round(float(rng.uniform(0.1, 0.4)), 2),
        loss_ramp_to=(round(float(rng.uniform(0.05, 0.3)), 2)
                      if rng.random() < 0.2 else -1.0),
    )

    personas = ()
    if rng.random() < 0.55:
        count = 1 if rng.random() < 0.7 else 2
        nodes = rng.permutation(num_sites)[:count]
        personas = tuple(
            PersonaAssignment(node=int(node),
                              persona=_choice(rng, PERSONA_NAMES))
            for node in sorted(int(node) for node in nodes)
        )

    return ScenarioSpec(
        name=name,
        space_size=int(rng.integers(8, 25)),
        horizon=horizon,
        announce_interval=float(rng.integers(2, 6)) * 5.0,
        cache_timeout=(float(rng.integers(2, 11)) * 30.0
                       if rng.random() < 0.4 else 3600.0),
        expiry_sweep=(float(rng.integers(1, 5)) * 30.0
                      if rng.random() < 0.5 else 0.0),
        starvation_moves=int(rng.integers(24, 65)),
        arrival=arrival,
        lifetime=lifetime,
        demand=demand,
        topology=topology,
        personas=personas,
    ).validate()
