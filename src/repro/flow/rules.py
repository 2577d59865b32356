"""The FLOW6xx rule table.

Kept free of imports so :mod:`repro.lint.registry` can list these
codes without pulling in the analysis engine (the registry is imported
by every CLI, including ones that never run the flow pass).

Unlike the per-file SIM1xx rules, FLOW6xx rules are *whole-program*:
a finding at a line is justified by call paths that start files away,
so they run from :mod:`repro.flow.analysis`, not from the lint engine.
"""

from __future__ import annotations

from typing import Tuple

#: (code, name, description)
FLOW_RULES: Tuple[Tuple[str, str, str], ...] = (
    ("FLOW601", "untraced-rng-draw",
     "a random draw reachable from a fleet job or experiment entry "
     "point that does not trace to derived_stream(...), the shard "
     "stream, or a seeded generator"),
    ("FLOW602", "stream-key-collision",
     "two distinct call sites constant-fold to the same stream key: "
     "the components draw correlated values"),
    ("FLOW603", "tainted-stream-key",
     "a stream key folded from non-spec-pure values (wall clock, "
     "pid, environment, id(), hash()) — not replayable"),
)

FLOW_RULE_NAMES = tuple(name for _, name, _ in FLOW_RULES)
