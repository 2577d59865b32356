"""Sanitizer violation model and reporters.

A :class:`Violation` is the runtime analogue of a lint
:class:`~repro.lint.engine.Finding`: instead of a source location it
carries the simulated time at which the invariant broke.  The bridge
:meth:`Violation.to_finding` maps violations into the lint report
model, so ``python -m repro.sanitize --format json`` emits exactly
the same JSON schema as the static linter
(``{"count": N, "findings": [...]}``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.lint.engine import Finding
from repro.lint.report import render_json as _lint_render_json

#: Registry of (code, rule) pairs the checkers can emit, mirroring the
#: SIM1xx static-rule registry.  SAN20x: address shadow state; SAN21x:
#: scope; SAN22x: scheduler/clock; SAN23x: directory caches.
VIOLATION_CODES = {
    "SAN201": "double-allocate",
    "SAN202": "alloc-out-of-bounds",
    "SAN203": "free-of-unallocated",
    "SAN204": "use-after-expiry",
    "SAN211": "scope-violation",
    "SAN221": "clock-backwards",
    "SAN222": "past-schedule",
    "SAN223": "cancelled-handle-fired",
    "SAN224": "reentrant-run",
    "SAN231": "cache-divergence",
    "SAN232": "cache-future-version",
}


@dataclass(frozen=True)
class Violation:
    """One broken runtime invariant at one simulated instant."""

    code: str
    rule: str
    message: str
    time: float = 0.0

    def format(self) -> str:
        return (f"t={self.time:.4f}: {self.code} [{self.rule}] "
                f"{self.message}")

    def to_finding(self, path: str) -> Finding:
        """Map into the lint report model.

        Runtime violations have no source location; the convention is
        a pseudo-path like ``<sanitize:kernel>`` with line 0.
        """
        return Finding(
            path=path, line=0, col=0, code=self.code, rule=self.rule,
            message=f"t={self.time:.4f}: {self.message}",
        )


def render_text(violations: Sequence[Violation],
                scenario: str = "") -> str:
    """One line per violation plus a summary line (lint-style)."""
    lines: List[str] = [violation.format() for violation in violations]
    count = len(violations)
    label = f"sanitize[{scenario}]" if scenario else "sanitize"
    if count == 0:
        lines.append(f"{label}: clean (0 violations)")
    else:
        by_rule: dict = {}
        for violation in violations:
            by_rule[violation.rule] = by_rule.get(violation.rule, 0) + 1
        breakdown = ", ".join(
            f"{rule}={n}" for rule, n in sorted(by_rule.items())
        )
        noun = "violation" if count == 1 else "violations"
        lines.append(f"{label}: {count} {noun} ({breakdown})")
    return "\n".join(lines)


def render_json(violations: Sequence[Violation],
                scenario: str = "") -> str:
    """The lint JSON schema, with pseudo-paths for locations."""
    path = f"<sanitize:{scenario}>" if scenario else "<sanitize>"
    return _lint_render_json(
        [violation.to_finding(path) for violation in violations]
    )
