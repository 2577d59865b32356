"""Network topology substrate.

Provides the multicast-capable topology graph (nodes, links with DVMRP
metrics, TTL thresholds and propagation delays), the synthetic Mbone map
generator used in place of the paper's mcollect data, the Doar-style
grid-growth generator used for the request-response simulations of §3,
and hop-count analysis (paper fig. 10).
"""

from repro.topology.graph import Link, Topology
from repro.topology.doar import DoarParams, generate_doar
from repro.topology.hopcount import HopCountStats, hop_count_distribution
from repro.topology.mapfile import dump_map, load_map, parse_map, save_map
from repro.topology.mbone import MboneParams, generate_mbone
from repro.topology.mcollect import McollectProbe

__all__ = [
    "DoarParams",
    "HopCountStats",
    "Link",
    "MboneParams",
    "McollectProbe",
    "Topology",
    "dump_map",
    "generate_doar",
    "generate_mbone",
    "hop_count_distribution",
    "load_map",
    "parse_map",
    "save_map",
]
