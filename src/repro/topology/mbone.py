"""Synthetic Mbone map generator.

The paper's allocation experiments run on a map of the 1998 Mbone
gathered by the mcollect/mwatch network monitor (1864 nodes after
removing disconnected subtrees), including all TTL thresholds and DVMRP
routing metrics.  That dataset is not available, so this module
generates a synthetic internetwork reproducing the *structural*
properties the experiments depend on:

* the TTL boundary policy of §2.1/fig. 3 — site boundaries at threshold
  16, country borders inside Europe at threshold 48, country borders
  elsewhere and Europe's external borders at threshold 64, plain links
  at threshold 1 (so TTL 47 sessions exist in Europe but behave like
  TTL 63 sessions in the US, the inconsistency that breaks IPR-3);
* hop-count-vs-TTL structure comparable to fig. 10 (local scopes a few
  hops across, global scopes tens of hops, everything under the DVMRP
  metric infinity of 32);
* tunnel metrics of 1 on local links and larger values on long-haul
  tunnels, as on the real Mbone.

Topology shape: a three-level hierarchy of continental hubs, national
backbones and multi-router sites, with a little random cross-linking in
backbones for realism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from repro.topology.graph import Topology

#: Threshold on a site's gateway link (local scope boundary).
SITE_THRESHOLD = 16
#: Threshold on country borders inside Europe.
EUROPE_COUNTRY_THRESHOLD = 48
#: Threshold on other country borders and continental borders.
COUNTRY_THRESHOLD = 64


@dataclass(frozen=True)
class CountrySpec:
    """A country within a continent."""

    name: str
    weight: float
    border_threshold: int


@dataclass(frozen=True)
class ContinentSpec:
    """A continent: a hub plus a set of countries."""

    name: str
    weight: float
    countries: Tuple[CountrySpec, ...]


def default_continents() -> Tuple[ContinentSpec, ...]:
    """The continental layout described in the paper (§2.1, fig. 3)."""
    def eu(name: str, weight: float) -> CountrySpec:
        return CountrySpec(name, weight, EUROPE_COUNTRY_THRESHOLD)

    def cc(name: str, weight: float) -> CountrySpec:
        return CountrySpec(name, weight, COUNTRY_THRESHOLD)

    return (
        ContinentSpec("north-america", 0.52, (
            cc("usa", 0.80), cc("canada", 0.15), cc("mexico", 0.05),
        )),
        ContinentSpec("europe", 0.30, (
            eu("uk", 0.22), eu("germany", 0.20), eu("holland", 0.12),
            eu("scandinavia", 0.14), eu("france", 0.12), eu("italy", 0.08),
            eu("spain", 0.06), eu("switzerland", 0.06),
        )),
        ContinentSpec("asia-pacific", 0.12, (
            cc("japan", 0.45), cc("australia", 0.35), cc("korea", 0.20),
        )),
        ContinentSpec("south-america", 0.06, (
            cc("brazil", 0.65), cc("chile", 0.35),
        )),
    )


@dataclass
class MboneParams:
    """Knobs for the synthetic Mbone.

    Attributes:
        total_nodes: target node count (the mcollect map had 1864).
        seed: RNG seed; the same seed always yields the same map.
        max_site_size: largest number of routers in one site.
        backbone_chords: extra random links added per national backbone
            (redundant paths, as real Mbone tunnels had).
        continents: continental layout; defaults to the paper's world.
    """

    total_nodes: int = 1864
    seed: int = 1998
    max_site_size: int = 8
    backbone_chords: int = 2
    continents: Tuple[ContinentSpec, ...] = field(
        default_factory=default_continents
    )

    def __post_init__(self) -> None:
        if self.total_nodes < 40:
            raise ValueError(
                f"need at least 40 nodes for the hierarchy, got "
                f"{self.total_nodes}"
            )
        if self.max_site_size < 1:
            raise ValueError("max_site_size must be >= 1")


def generate_mbone(params: MboneParams = None) -> Topology:
    """Generate a synthetic Mbone topology.

    Node labels encode position in the hierarchy:
    ``"<continent>/hub"``, ``"<continent>/<country>/bb<i>"`` and
    ``"<continent>/<country>/site<j>/r<k>"``.
    """
    if params is None:
        params = MboneParams()
    rng = np.random.default_rng(params.seed)
    topo = Topology()
    builder = _MboneBuilder(topo, rng, params)
    builder.build()
    if not topo.is_connected():
        raise AssertionError("generator produced a disconnected map")
    return topo


class _MboneBuilder:
    """Internal builder; splits the construction into readable steps."""

    def __init__(self, topo: Topology, rng: np.random.Generator,
                 params: MboneParams) -> None:
        self.topo = topo
        self.rng = rng
        self.params = params
        self.hub_of: Dict[str, int] = {}

    def build(self) -> None:
        budgets = self._continent_budgets()
        for continent in self.params.continents:
            hub = self.topo.add_node(label=f"{continent.name}/hub")
            self.hub_of[continent.name] = hub
        self._link_hubs()
        for continent in self.params.continents:
            self._build_continent(continent, budgets[continent.name])

    def _continent_budgets(self) -> Dict[str, int]:
        """Split the node budget across continents by weight."""
        total = self.params.total_nodes
        weights = np.array([c.weight for c in self.params.continents])
        weights = weights / weights.sum()
        budgets = np.floor(weights * total).astype(int)
        budgets[0] += total - int(budgets.sum())
        return {c.name: max(8, int(b))
                for c, b in zip(self.params.continents, budgets)}

    def _link_hubs(self) -> None:
        """Intercontinental tunnels: star on the first hub plus a ring.

        Intercontinental borders carry threshold 64, so TTL 63 traffic
        never leaves a continent but TTL 127 does (fig. 10's
        "intercontinental" row).
        """
        hubs = list(self.hub_of.values())
        first = hubs[0]
        for hub in hubs[1:]:
            self.topo.add_link(
                first, hub, metric=3, threshold=COUNTRY_THRESHOLD,
                delay=self.rng.uniform(0.040, 0.080),
            )
        # One redundant long-haul tunnel between the 2nd and last hubs.
        if len(hubs) >= 3:
            self.topo.add_link(
                hubs[1], hubs[-1], metric=4, threshold=COUNTRY_THRESHOLD,
                delay=self.rng.uniform(0.060, 0.100),
            )

    def _build_continent(self, continent: ContinentSpec,
                         budget: int) -> None:
        hub = self.hub_of[continent.name]
        weights = np.array([c.weight for c in continent.countries])
        weights = weights / weights.sum()
        shares = np.floor(weights * budget).astype(int)
        shares[0] += budget - int(shares.sum())
        for country, share in zip(continent.countries, shares):
            self._build_country(continent, country, hub, max(4, int(share)))

    def _build_country(self, continent: ContinentSpec, country: CountrySpec,
                       hub: int, budget: int) -> None:
        prefix = f"{continent.name}/{country.name}"
        backbone_size = int(np.clip(round(budget ** 0.5 * 0.55), 2, 12))
        backbone = self._build_backbone(prefix, backbone_size)
        # National border: the gateway link to the continental hub.
        self.topo.add_link(
            hub, backbone[0], metric=2, threshold=country.border_threshold,
            delay=self.rng.uniform(0.010, 0.030),
        )
        remaining = budget - backbone_size
        site_index = 0
        while remaining > 0:
            size = int(min(remaining,
                           self.rng.integers(1, self.params.max_site_size
                                             + 1)))
            attach = int(self.rng.choice(backbone))
            self._build_site(prefix, site_index, attach, size)
            remaining -= size
            site_index += 1

    def _build_backbone(self, prefix: str, size: int) -> List[int]:
        """National backbone: a random tree plus a few chord links."""
        nodes = [self.topo.add_node(label=f"{prefix}/bb{i}")
                 for i in range(size)]
        for i in range(1, size):
            parent = nodes[int(self.rng.integers(0, i))]
            self.topo.add_link(
                parent, nodes[i], metric=1, threshold=1,
                delay=self.rng.uniform(0.003, 0.015),
            )
        chords = min(self.params.backbone_chords, size - 2)
        for __ in range(max(0, chords)):
            u, v = self.rng.choice(size, size=2, replace=False)
            if not self.topo.has_link(nodes[u], nodes[v]):
                self.topo.add_link(
                    nodes[u], nodes[v], metric=2, threshold=1,
                    delay=self.rng.uniform(0.003, 0.015),
                )
        return nodes

    def _build_site(self, prefix: str, index: int, attach: int,
                    size: int) -> None:
        """A site: gateway behind a threshold-16 link, internal tree."""
        label = f"{prefix}/site{index}"
        gateway = self.topo.add_node(label=f"{label}/r0")
        self.topo.add_link(
            attach, gateway, metric=1, threshold=SITE_THRESHOLD,
            delay=self.rng.uniform(0.002, 0.010),
        )
        internal = [gateway]
        for k in range(1, size):
            node = self.topo.add_node(label=f"{label}/r{k}")
            # Prefer recent nodes as parents so sites form short chains
            # and small trees (a few hops across, as fig. 10's TTL-15
            # curve shows) rather than pure stars.
            parent_pool = internal[-3:]
            parent = parent_pool[int(self.rng.integers(0, len(parent_pool)))]
            self.topo.add_link(
                parent, node, metric=1, threshold=1,
                delay=self.rng.uniform(0.001, 0.003),
            )
            internal.append(node)
