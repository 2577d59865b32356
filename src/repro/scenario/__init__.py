"""repro.scenario — declarative workloads, adversaries and fuzzing.

The ROADMAP's north star asks for "as many scenarios as you can
imagine"; the three hand-coded harnesses (kernel/clash/steady)
cover exactly three.  This package turns scenarios into *data*:

* :mod:`repro.scenario.spec` — a frozen, JSON-round-trippable
  :class:`~repro.scenario.spec.ScenarioSpec` composing arrival
  processes (Poisson, diurnal, flash crowd), heavy-tailed session
  lifetimes, address-demand shapes (uniform, hotspot, multifractal
  cascade), topology dynamics (churn, partition storms, loss ramps)
  and misbehaving-allocator personas;
* :mod:`repro.scenario.engine` — runs a spec through the real
  ``sim``/``sap`` stack, every draw keyed under
  ``scenario/<spec-digest>/...`` so any run replays from
  ``(spec, seed)`` alone;
* :mod:`repro.scenario.invariants` — scenario-level runtime rules
  SCN901–905 layered over the SAN2xx sanitizers;
* :mod:`repro.scenario.generator` / :mod:`~repro.scenario.shrink` /
  :mod:`~repro.scenario.fuzz` — sample random specs, run them under
  the sanitizer + invariants, and delta-debug any violating spec down
  to a minimal replayable JSON artifact.

``python -m repro.scenario`` (or ``repro scenario``) is the sixth CLI
on the shared rule registry.
"""

from repro.scenario.engine import ScenarioRun, run_spec
from repro.scenario.spec import (
    ArrivalSpec,
    DemandSpec,
    LifetimeSpec,
    PersonaAssignment,
    ScenarioSpec,
    TopologySpec,
)

__all__ = [
    "ArrivalSpec",
    "DemandSpec",
    "LifetimeSpec",
    "PersonaAssignment",
    "ScenarioRun",
    "ScenarioSpec",
    "TopologySpec",
    "run_spec",
]
