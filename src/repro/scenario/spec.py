"""The declarative scenario model.

A :class:`ScenarioSpec` is a frozen value: everything a run needs
except the seed.  Two properties make specs the unit of fuzzing:

* **JSON round trip** — :meth:`ScenarioSpec.to_dict` /
  :meth:`ScenarioSpec.from_dict` are exact inverses, so a violating
  spec travels as a replayable artifact;
* **Content digest** — :meth:`ScenarioSpec.digest` hashes the
  canonical JSON form, and the engine keys every RNG stream under
  ``scenario/<digest>/...``, so a run is a pure function of
  ``(spec, seed)``.

The *neutral baseline* is ``ScenarioSpec()`` — a small honest Poisson
workload with no dynamics and no adversaries.  The shrinker measures
a spec's complexity as its :func:`active_fields`: the dotted field
paths where it differs from the baseline.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Any, Dict, List, Tuple

#: Arrival processes the engine understands.
ARRIVAL_PROCESSES = ("poisson", "diurnal", "flash-crowd")

#: Session-lifetime distributions (``pareto`` is the heavy tail).
LIFETIME_DISTRIBUTIONS = ("uniform", "exponential", "pareto")

#: Address-demand shapes over the scoped space.
DEMAND_SHAPES = ("uniform", "hotspot", "multifractal")

#: Spec kinds: ``synthetic`` runs the generative engine; the legacy
#: kinds dispatch to the repo's original hand-coded harnesses so the
#: old scenarios are expressible as committed spec fixtures.
SPEC_KINDS = ("synthetic", "kernel", "clash", "steady")


@dataclass(frozen=True)
class ArrivalSpec:
    """When sessions are created.

    Attributes:
        process: ``poisson`` (homogeneous), ``diurnal`` (sinusoidal
            rate modulation), or ``flash-crowd`` (a burst window at
            ``flash_start`` multiplying the base rate).
        rate: mean aggregate arrivals per simulated second.
        diurnal_period: seconds per diurnal cycle.
        diurnal_depth: modulation depth in [0, 1).
        flash_start: burst start as a fraction of the horizon.
        flash_width: burst width as a fraction of the horizon.
        flash_multiplier: rate multiplier inside the burst.
    """

    process: str = "poisson"
    rate: float = 0.05
    diurnal_period: float = 300.0
    diurnal_depth: float = 0.8
    flash_start: float = 0.4
    flash_width: float = 0.1
    flash_multiplier: float = 8.0

    def validate(self) -> None:
        if self.process not in ARRIVAL_PROCESSES:
            raise ValueError(f"unknown arrival process {self.process!r}")
        if self.rate <= 0:
            raise ValueError(f"arrival rate must be positive: {self.rate}")
        if self.diurnal_period <= 0:
            raise ValueError("diurnal_period must be positive")
        if not 0.0 <= self.diurnal_depth < 1.0:
            raise ValueError("diurnal_depth must sit in [0, 1)")
        if not 0.0 <= self.flash_start <= 1.0:
            raise ValueError("flash_start must sit in [0, 1]")
        if not 0.0 < self.flash_width <= 1.0:
            raise ValueError("flash_width must sit in (0, 1]")
        if self.flash_multiplier < 1.0:
            raise ValueError("flash_multiplier must be >= 1")


@dataclass(frozen=True)
class LifetimeSpec:
    """How long created sessions live before withdrawing.

    ``pareto`` gives the paper-realistic heavy tail: most sessions
    are short, a few effectively pin their address for the whole run.
    """

    distribution: str = "uniform"
    mean: float = 120.0
    minimum: float = 20.0
    pareto_alpha: float = 1.5

    def validate(self) -> None:
        if self.distribution not in LIFETIME_DISTRIBUTIONS:
            raise ValueError(
                f"unknown lifetime distribution {self.distribution!r}"
            )
        if self.minimum <= 0 or self.mean <= self.minimum:
            raise ValueError(
                f"need 0 < minimum < mean, got minimum={self.minimum} "
                f"mean={self.mean}"
            )
        if self.pareto_alpha <= 1.0:
            raise ValueError("pareto_alpha must exceed 1 (finite mean)")


@dataclass(frozen=True)
class DemandSpec:
    """Where demand lands: which sites create sessions, at what scope.

    ``hotspot`` concentrates ``hotspot_weight`` of the arrival mass on
    the first ``hotspot_fraction`` of sites; ``multifractal`` builds a
    multiplicative cascade over the site population (the arXiv
    2504.01374 observation that real address demand is multifractally
    skewed, mapped onto the scoped space).  TTLs are drawn from
    ``ttls`` with ``ttl_weights``.
    """

    shape: str = "uniform"
    hotspot_fraction: float = 0.25
    hotspot_weight: float = 0.8
    cascade_depth: int = 6
    cascade_bias: float = 0.7
    ttls: Tuple[int, ...] = (15, 47, 63, 127)
    ttl_weights: Tuple[float, ...] = (0.1, 0.2, 0.3, 0.4)

    def validate(self) -> None:
        if self.shape not in DEMAND_SHAPES:
            raise ValueError(f"unknown demand shape {self.shape!r}")
        if not 0.0 < self.hotspot_fraction <= 1.0:
            raise ValueError("hotspot_fraction must sit in (0, 1]")
        if not 0.0 < self.hotspot_weight < 1.0:
            raise ValueError("hotspot_weight must sit in (0, 1)")
        if not 1 <= self.cascade_depth <= 16:
            raise ValueError("cascade_depth must sit in 1..16")
        if not 0.5 <= self.cascade_bias < 1.0:
            raise ValueError("cascade_bias must sit in [0.5, 1)")
        if not self.ttls or len(self.ttls) != len(self.ttl_weights):
            raise ValueError("ttls and ttl_weights must align")
        if any(t < 1 or t > 255 for t in self.ttls):
            raise ValueError("ttls must sit in 1..255")
        if any(w <= 0 for w in self.ttl_weights):
            raise ValueError("ttl_weights must be positive")


@dataclass(frozen=True)
class TopologySpec:
    """The full-mesh substrate and its dynamics.

    Attributes:
        num_sites: directories in the mesh.
        loss_rate: end-to-end loss probability.
        jitter: uniform per-delivery jitter bound (seconds).
        churn_events: node-down events over the horizon (MANET-style
            membership churn; each downed node detaches from the mesh
            and re-attaches after ``churn_downtime`` seconds).
        churn_downtime: seconds a churned node stays detached.
        partition_storms: partition/heal cycles over the horizon.
        partition_duty: fraction of the horizon spent partitioned,
            split evenly across the storms.
        loss_ramp_to: if >= 0, the loss rate ramps linearly from
            ``loss_rate`` to this value over the horizon.
    """

    num_sites: int = 6
    loss_rate: float = 0.01
    jitter: float = 0.01
    churn_events: int = 0
    churn_downtime: float = 120.0
    partition_storms: int = 0
    partition_duty: float = 0.2
    loss_ramp_to: float = -1.0

    def validate(self) -> None:
        if not 2 <= self.num_sites <= 64:
            raise ValueError("num_sites must sit in 2..64")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be a probability")
        if self.jitter < 0:
            raise ValueError("jitter must be non-negative")
        if self.churn_events < 0 or self.churn_events > 64:
            raise ValueError("churn_events must sit in 0..64")
        if self.churn_downtime <= 0:
            raise ValueError("churn_downtime must be positive")
        if self.partition_storms < 0 or self.partition_storms > 16:
            raise ValueError("partition_storms must sit in 0..16")
        if not 0.0 < self.partition_duty < 1.0:
            raise ValueError("partition_duty must sit in (0, 1)")
        if self.loss_ramp_to > 1.0:
            raise ValueError("loss_ramp_to must be <= 1")


@dataclass(frozen=True)
class PersonaAssignment:
    """Bind one misbehaving persona to one node."""

    node: int
    persona: str

    def validate(self, num_sites: int) -> None:
        from repro.scenario.personas import PERSONA_NAMES

        if not 0 <= self.node < num_sites:
            raise ValueError(
                f"persona node {self.node} outside 0..{num_sites - 1}"
            )
        if self.persona not in PERSONA_NAMES:
            raise ValueError(f"unknown persona {self.persona!r}")


@dataclass(frozen=True)
class ScenarioSpec:
    """One complete scenario, minus the seed.

    Attributes:
        name: human label.  The digest covers every field, name
            included, so two specs are interchangeable iff their
            JSON forms are equal.
        kind: ``synthetic`` or a legacy harness kind.
        space_size: addresses in the (abstract) scoped space.
        horizon: simulated seconds to run.
        announce_interval: fixed re-announcement interval.
        cache_timeout: seconds of announcement silence after which a
            cache entry is stale.
        expiry_sweep: period of the per-directory cache expiry sweep;
            0 disables sweeping (stale claims then pin the space —
            the SCN905 shape).
        starvation_moves: SCN902 threshold — a directory forced to
            move addresses this many times under a flash crowd is
            starved.
        arrival / lifetime / demand / topology: sub-specs above.
        personas: misbehaving-node assignments.
        legacy: JSON-safe ``(key, value)`` parameter pairs for the
            legacy harness kinds.
    """

    name: str = "scenario"
    kind: str = "synthetic"
    space_size: int = 16
    horizon: float = 600.0
    announce_interval: float = 20.0
    cache_timeout: float = 3600.0
    expiry_sweep: float = 0.0
    starvation_moves: int = 64
    arrival: ArrivalSpec = field(default_factory=ArrivalSpec)
    lifetime: LifetimeSpec = field(default_factory=LifetimeSpec)
    demand: DemandSpec = field(default_factory=DemandSpec)
    topology: TopologySpec = field(default_factory=TopologySpec)
    personas: Tuple[PersonaAssignment, ...] = ()
    legacy: Tuple[Tuple[str, Any], ...] = ()

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    def validate(self) -> "ScenarioSpec":
        """Check every field; returns self so calls chain.

        Raises:
            ValueError: on the first out-of-range field.
        """
        if self.kind not in SPEC_KINDS:
            raise ValueError(f"unknown spec kind {self.kind!r}")
        if not self.name:
            raise ValueError("spec name must be non-empty")
        if self.kind != "synthetic":
            return self
        if not 2 <= self.space_size <= 1 << 20:
            raise ValueError("space_size must sit in 2..2^20")
        if self.horizon <= 0:
            raise ValueError("horizon must be positive")
        if self.announce_interval <= 0:
            raise ValueError("announce_interval must be positive")
        if self.cache_timeout <= 0:
            raise ValueError("cache_timeout must be positive")
        if self.expiry_sweep < 0:
            raise ValueError("expiry_sweep must be >= 0")
        if self.starvation_moves < 1:
            raise ValueError("starvation_moves must be >= 1")
        self.arrival.validate()
        self.lifetime.validate()
        self.demand.validate()
        self.topology.validate()
        seen = set()
        for assignment in self.personas:
            assignment.validate(self.topology.num_sites)
            if assignment.node in seen:
                raise ValueError(
                    f"node {assignment.node} has two personas"
                )
            seen.add(assignment.node)
        return self

    # ------------------------------------------------------------------
    # JSON round trip
    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """A JSON-safe dict; exact inverse of :meth:`from_dict`."""
        return _as_dict(self)

    def to_json(self) -> str:
        """Canonical JSON: sorted keys, minimal separators."""
        return json.dumps(self.to_dict(), sort_keys=True,
                          separators=(",", ":"))

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "ScenarioSpec":
        """Rebuild a spec from :meth:`to_dict` output.

        Raises:
            ValueError: on unknown or missing fields.
        """
        return _from_dict(cls, payload)

    @classmethod
    def from_json(cls, text: str) -> "ScenarioSpec":
        return cls.from_dict(json.loads(text))

    def digest(self) -> str:
        """Content identity: sha256 of the canonical JSON, 16 hex."""
        raw = self.to_json().encode("utf-8")
        return hashlib.sha256(raw).hexdigest()[:16]

    def stream_prefix(self) -> str:
        """Every engine RNG key starts here (FLOW602 namespace)."""
        return f"scenario/{self.digest()}"

    def legacy_params(self) -> Dict[str, Any]:
        """The legacy pairs as a dict (synthetic specs: empty)."""
        return {key: value for key, value in self.legacy}


#: Field paths the shrinker treats as one unit (tuples shrink
#: element-wise, not field-wise).
_ATOMIC_FIELDS = ("personas", "legacy", "demand.ttls",
                  "demand.ttl_weights")


def _as_dict(value: Any) -> Any:
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: _as_dict(getattr(value, f.name))
                for f in fields(value)}
    if isinstance(value, tuple):
        return [_as_dict(item) for item in value]
    return value


def _from_dict(cls: type, payload: Dict[str, Any]) -> Any:
    if not isinstance(payload, dict):
        raise ValueError(f"expected an object for {cls.__name__}, "
                         f"got {type(payload).__name__}")
    known = {f.name: f for f in fields(cls)}
    unknown = sorted(set(payload) - set(known))
    if unknown:
        raise ValueError(
            f"unknown {cls.__name__} field(s): {', '.join(unknown)}"
        )
    kwargs: Dict[str, Any] = {}
    for name, value in payload.items():
        kwargs[name] = _revive(cls, name, value)
    return cls(**kwargs)


def _revive(cls: type, name: str, value: Any) -> Any:
    if cls is ScenarioSpec:
        nested = {"arrival": ArrivalSpec, "lifetime": LifetimeSpec,
                  "demand": DemandSpec, "topology": TopologySpec}
        if name in nested:
            return _from_dict(nested[name], value)
        if name == "personas":
            return tuple(_from_dict(PersonaAssignment, item)
                         for item in value)
        if name == "legacy":
            return tuple((str(key), item) for key, item in value)
    if isinstance(value, list):
        return tuple(value)
    return value


def baseline_spec() -> ScenarioSpec:
    """The neutral baseline every shrink converges toward."""
    return ScenarioSpec()


def active_fields(spec: ScenarioSpec) -> List[str]:
    """Dotted paths where ``spec`` differs from the baseline.

    Nested sub-spec fields count individually
    (``topology.partition_storms``); tuple-valued fields count as one
    (``personas``).  ``name`` is excluded: it is a label, and although
    it participates in the digest (and so re-keys the streams), it
    carries no behavioural weight worth shrinking away.  The
    shrinker's "≤ N active fields" contract is measured with exactly
    this function.
    """
    return [path for path in _diff(spec, baseline_spec(), prefix="")
            if path != "name"]


def _diff(value: Any, base: Any, prefix: str) -> List[str]:
    out: List[str] = []
    if is_dataclass(value) and not isinstance(value, type):
        for f in fields(value):
            path = f"{prefix}{f.name}"
            if path in _ATOMIC_FIELDS or not is_dataclass(
                    getattr(value, f.name)):
                if getattr(value, f.name) != getattr(base, f.name):
                    out.append(path)
            else:
                out.extend(_diff(getattr(value, f.name),
                                 getattr(base, f.name),
                                 prefix=f"{path}."))
        return out
    if value != base:
        out.append(prefix.rstrip("."))
    return out
