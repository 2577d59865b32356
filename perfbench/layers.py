"""Per-layer metrics: what the traced run wraps and what it reports.

:func:`install` wraps the public functions named below, and
:func:`per_layer` derives the metrics ``BENCHMARK.json`` lists (the
README says which end-to-end metric each group should move, and on
which workload).  Times are medians of per-call microseconds, with a
``_p99`` beside the hot calls.  ``_self_us`` subtracts the wrapped calls
made inside the span; every other time is the whole call.
"""

from __future__ import annotations

from typing import Dict, Iterable, Tuple

from repro.core.adaptive import AdaptiveIprmaAllocator
from repro.core.hybrid import HybridIprmaAllocator
from repro.core.informed import InformedRandomAllocator
from repro.core.iprma import StaticIprmaAllocator
from repro.core.random_alloc import RandomAllocator
from repro.experiments.ttl_distributions import TtlDistribution
from repro.experiments.world import AllocationWorld
from repro.routing.scoping import ScopeMap
from repro.sap.cache import SessionCache
from repro.sap.clash_protocol import ClashHandler
from repro.sap.directory import SessionDirectory
from repro.sap.messages import SapMessage, SapMessageType
from repro.sap.sdp import SessionDescription
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel

from spans import SpanRecorder, SpanStats

FAMILIES = {
    "random_alloc": RandomAllocator,
    "informed": InformedRandomAllocator,
    "iprma": StaticIprmaAllocator,
    "adaptive": AdaptiveIprmaAllocator,
    "hybrid": HybridIprmaAllocator,
}


def _observe_kind(cache: SessionCache, message: SapMessage, *rest) -> str:
    if message.msg_type is SapMessageType.DELETE:
        return "sap.cache.observe_delete"
    if cache.lookup(*message.key()) is not None:
        return "sap.cache.observe_hit"
    return "sap.cache.observe_miss"


def _result(result, *args) -> int:
    return result


def _cache_len(result, cache: SessionCache, *args) -> int:
    return len(cache)


def _visible_len(result, allocator, ttl, visible) -> int:
    return len(visible)


def install(recorder: SpanRecorder) -> None:
    """Wrap every traced function; undo with ``recorder.unpatch()``."""
    patch = recorder.patch
    patch(EventScheduler, "step", "sim.events.step")
    patch(NetworkModel, "send", "sim.network.send", measure=_result)
    patch(SapMessage, "encode", "sap.messages.encode")
    patch(SapMessage, "decode", "sap.messages.decode")
    patch(SessionDescription, "format", "sap.sdp.format")
    patch(SessionDescription, "parse", "sap.sdp.parse")
    patch(SessionCache, "observe", "sap.cache.observe",
          classify=_observe_kind)
    patch(SessionCache, "entries_for_address", "sap.cache.scan",
          measure=_cache_len)
    patch(SessionCache, "visible_set", "sap.cache.visible_set")
    patch(ClashHandler, "on_announcement",
          "sap.clash_protocol.on_announcement")
    patch(SessionDirectory, "owns", "sap.directory.owns")
    patch(SessionDirectory, "create_session",
          "sap.directory.create_session")
    for family, cls in FAMILIES.items():
        patch(cls, "allocate", f"core.{family}.allocate",
              measure=_visible_len)
    patch(AllocationWorld, "visible_at", "experiments.world.visible_at")
    patch(AllocationWorld, "clashes", "experiments.world.clashes")
    patch(TtlDistribution, "sample", "experiments.ttl_distributions.sample")
    patch(ScopeMap, "scopes_overlap", "routing.scoping.scopes_overlap")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(stats: SpanStats, counters: Dict[str, float],
              overhead_pct: float, names: Iterable[str]
              ) -> Dict[str, float]:
    """The per-layer metrics ``names`` from one traced repetition."""
    deliveries = counters.get("packets_delivered", 0)
    hits = stats.calls("sap.cache.observe_hit")
    misses = stats.calls("sap.cache.observe_miss")
    scheduled = stats.value_sum("sim.network.send")
    lost = counters.get("packets_lost", 0)
    values = {
        "sim.events.schedule_calls": counters.get("events_scheduled", 0),
        "sim.events.pending_max": stats.sample_max("sim.events.pending"),
        "sim.network.fanout": stats.value_mean("sim.network.send"),
        "sim.network.loss_ratio": _ratio(lost, lost + scheduled),
        "sim.network.deliveries": deliveries,
        "sap.cache.hit_ratio": _ratio(hits, hits + misses),
        "sap.cache.scan_len_mean": stats.value_mean("sap.cache.scan"),
        "sap.cache.entries_max": stats.sample_max("sap.cache.entries"),
        "sap.sdp.formats_per_delivery": _ratio(
            stats.calls("sap.sdp.format"), deliveries),
        "sap.sdp.parses_per_delivery": _ratio(
            stats.calls("sap.sdp.parse"), deliveries),
        "sap.directory.owns_per_delivery": _ratio(
            stats.calls("sap.directory.owns"), deliveries),
        "sap.clash_protocol.clashes_seen": counters.get("clashes_seen", 0),
        "sap.clash_protocol.retreats": counters.get("retreats", 0),
        "sap.clash_protocol.defences_sent": counters.get(
            "defences_sent", 0),
        "sap.directory.address_changes": counters.get(
            "address_changes", 0),
        "experiments.fig5_s": stats.total_s("experiments.fig5"),
        "experiments.fig12_s": stats.total_s("experiments.fig12"),
        "routing.scoping.from_topology_s": stats.total_s(
            "routing.scoping.from_topology"),
        "topology.mbone.generate_s": stats.total_s(
            "topology.mbone.generate"),
        "trace.overhead_pct": overhead_pct,
    }
    allocations = sum(stats.calls(f"core.{f}.allocate") for f in FAMILIES)
    values["core.visible_len_mean"] = _ratio(
        sum(stats.value_sum(f"core.{f}.allocate") for f in FAMILIES),
        allocations)
    # The remaining names follow one pattern: <span>_calls, <span>_us,
    # <span>_self_us and their _p99s.
    for name in names:
        if name in values:
            continue
        span, kind = _split(name)
        if kind == "calls":
            values[name] = stats.calls(span)
        elif kind.endswith("_p99"):
            values[name] = stats.p99_us(
                span, "self" if kind.startswith("self") else "duration")
        else:
            values[name] = stats.median_us(
                span, "self" if kind.startswith("self") else "duration")
    return {name: values[name] for name in names}


def _split(name: str) -> Tuple[str, str]:
    """``sap.sdp.format_us_p99`` -> (``sap.sdp.format``, ``us_p99``)."""
    for kind in ("calls", "self_us_p99", "self_us", "us_p99", "us"):
        if name.endswith("_" + kind):
            return name[: -len(kind) - 1], kind
    raise ValueError(f"no rule derives per-layer metric {name!r}")
