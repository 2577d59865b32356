"""Opt-in runtime sanitizers for the simulation stack.

An ASan/TSan-style instrumentation layer: a
:class:`~repro.sanitize.context.SanitizerContext` attaches shadow
state to the event kernel, the network model, the session directories
and the allocators, and records every broken invariant as a
:class:`~repro.sanitize.report.Violation`.  It attaches by wrapping
methods of the instances it is given, so the simulation carries no
checking code: with no context attached, nothing is checked and
nothing is paid.

Checkers:

* :class:`~repro.sanitize.address_checker.AddressSanitizer` —
  double-allocate, out-of-declared-bounds allocation, free of
  unallocated sessions, announce-after-withdrawal.
* :class:`~repro.sanitize.scope_checker.ScopeSanitizer` — packet
  delivered outside the session's TTL scope.
* :class:`~repro.sanitize.scheduler_checker.SchedulerSanitizer` —
  clock monotonicity, past scheduling, cancelled handles firing,
  re-entrant ``run()``.
* :class:`~repro.sanitize.cache_checker.CacheSanitizer` — SAP caches
  diverging from announcer ground truth after convergence.

Run scenarios from the command line::

    python -m repro.sanitize              # all scenarios
    python -m repro.sanitize kernel --format json
"""

from repro.sanitize.address_checker import AddressSanitizer
from repro.sanitize.cache_checker import CacheSanitizer
from repro.sanitize.context import SanitizerContext
from repro.sanitize.report import (
    VIOLATION_CODES,
    Violation,
    render_json,
    render_text,
)
from repro.sanitize.scenarios import (
    SCENARIO_NAMES,
    ScenarioResult,
    run_all_scenarios,
    run_scenario,
)
from repro.sanitize.scheduler_checker import SchedulerSanitizer
from repro.sanitize.scope_checker import ScopeSanitizer

__all__ = [
    "AddressSanitizer",
    "CacheSanitizer",
    "SanitizerContext",
    "SchedulerSanitizer",
    "ScopeSanitizer",
    "SCENARIO_NAMES",
    "ScenarioResult",
    "VIOLATION_CODES",
    "Violation",
    "render_json",
    "render_text",
    "run_all_scenarios",
    "run_scenario",
]
