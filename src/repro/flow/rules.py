"""The FLOW6xx rule table.

Kept free of imports so :mod:`repro.lint.registry` can list these
codes without pulling in the analysis engine (the registry is imported
by every CLI, including ones that never run the flow pass).

Unlike the per-file SIM1xx rules, FLOW6xx rules are *whole-program*:
a finding at a line is justified by call paths that start files away,
so they run from :mod:`repro.flow.analysis`, not from the lint engine.

``advisory`` rules mark the FLOW615 soundness boundary: reported,
but they do not fail the build unless ``--strict``.
"""

from __future__ import annotations

from typing import Tuple

#: (code, name, advisory, description)
FLOW_RULES: Tuple[Tuple[str, str, bool, str], ...] = (
    ("FLOW601", "untraced-rng-draw", False,
     "a random draw reachable from a fleet job or experiment entry "
     "point that does not trace to derived_stream(...), the shard "
     "stream, or a seeded generator"),
    ("FLOW602", "stream-key-collision", False,
     "two distinct call sites constant-fold to the same stream key: "
     "the components draw correlated values"),
    ("FLOW603", "tainted-stream-key", False,
     "a stream key folded from non-spec-pure values (wall clock, "
     "pid, environment, id(), hash()) — not replayable"),
    ("FLOW604", "ambient-stream-in-job", False,
     "a fleet-job path falls back to a bare constant-key stream, so "
     "every shard draws the same sequence there"),
    ("FLOW611", "job-mutates-global", False,
     "a function reachable from a fleet job assigns a global, a "
     "class attribute, or a module-level container"),
    ("FLOW612", "job-reads-wallclock", False,
     "a function reachable from a fleet job reads (or sleeps on) the "
     "wall clock; payloads must not depend on when the shard ran"),
    ("FLOW613", "job-does-io", False,
     "a function reachable from a fleet job does filesystem, "
     "process or network I/O outside the runner's checkpoint API"),
    ("FLOW614", "job-captures-mutable", False,
     "a closure on a fleet-job path writes through a captured "
     "enclosing variable; state leaks between in-process shards"),
    ("FLOW615", "job-unresolved-call", True,
     "a reachable call the graph cannot resolve; purity past this "
     "edge is assumed, not proved (the documented soundness "
     "boundary)"),
)

#: Rule names whose findings are advisory (report-only by default).
ADVISORY_RULES = frozenset(
    name for _, name, advisory, _ in FLOW_RULES if advisory
)

FLOW_RULE_NAMES = tuple(name for _, name, _, _ in FLOW_RULES)
