"""Whole-program call-graph and dataflow analyses (FLOW6xx).

One pass over a call graph of ``src/``:
:mod:`repro.flow.provenance` — FLOW601–603, RNG provenance: every
draw on an experiment or tool-CLI path must trace to a keyed
``derived_stream`` or a seeded generator, and stream keys must
neither collide nor fold in non-replayable values.

Run as ``python -m repro.flow`` or ``repro flow``; shares the
six-tool registry and exit-code contract in :mod:`repro.lint.registry`.
"""

from repro.flow.analysis import (  # noqa: F401
    FlowReport,
    analyze_paths,
    analyze_sources,
)
from repro.flow.graph import CallGraph, build_graph  # noqa: F401
from repro.flow.rules import FLOW_RULES, FLOW_RULE_NAMES  # noqa: F401
