"""Whole-program call-graph and dataflow analyses (FLOW6xx).

Two passes over one shared call graph of ``src/``:

* :mod:`repro.flow.provenance` — FLOW601–604, RNG provenance: every
  draw on a fleet-job or experiment path must trace to a keyed
  ``derived_stream``, the shard stream, or a seeded generator.
* :mod:`repro.flow.purity` — FLOW611–615, purity proofs for fleet
  jobs: no global mutation, no wall clock, no I/O outside the
  checkpoint API, no writes through captured state.

Run as ``python -m repro.flow`` or ``repro flow``; shares the
seven-tool registry and exit-code contract in :mod:`repro.lint.registry`.
"""

from repro.flow.analysis import (  # noqa: F401
    FlowReport,
    analyze_paths,
    analyze_sources,
)
from repro.flow.graph import CallGraph, build_graph  # noqa: F401
from repro.flow.rules import (  # noqa: F401
    ADVISORY_RULES,
    FLOW_RULES,
    FLOW_RULE_NAMES,
)
