"""Static analysis enforcing the repo's determinism contract.

The paper's results are reproducible only because every stochastic
draw flows through :class:`repro.sim.rng.RandomStreams` and the event
scheduler breaks timestamp ties by insertion order.  This subpackage
*enforces* those invariants:

* :mod:`repro.lint.rules` — the SIM1xx rule set (unseeded RNGs,
  wall-clock reads, set-iteration order, discarded event handles,
  tainted or colliding stream keys, ...).
* :mod:`repro.lint.registry` — the shared registry across all three
  analysis tools (SIM static rules, MC30x spec cross-checks, SAN2xx /
  MC31x runtime codes) plus the common exit-code contract.
* :mod:`repro.lint.engine` — one AST pass over a tree, ``# simlint:``
  suppressions.
* :mod:`repro.lint.report` — text, JSON and GitHub-annotation
  reporters.
* :mod:`repro.lint.determinism` — run-twice runtime harness.
* ``python -m repro.lint [paths]`` — the CLI; exits non-zero on any
  unsuppressed finding.
"""

from repro.lint.engine import Finding, lint_paths, lint_source
from repro.lint.report import render_github, render_json, render_text
from repro.lint.rules import ALL_RULES

__all__ = [
    "ALL_RULES",
    "Finding",
    "lint_paths",
    "lint_source",
    "render_github",
    "render_json",
    "render_text",
]
