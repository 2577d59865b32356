"""One registry for every check the repo's four analysis tools run.

The static linter (SIM1xx), the runtime sanitizer (SAN2xx), the
model-check spec cross-checker (MC301–MC304), the model-check runtime
invariants (MC31x) and the scenario engine's workload invariants
(SCN9xx) each grew their own code space; this module is the single
place that enumerates all of them, so

* ``--list-rules`` prints the same registry from ``repro.lint``,
  ``repro.sanitize``, ``repro.modelcheck`` and ``repro.scenario``
  alike;
* the four CLIs share one exit-code contract
  (:data:`EXIT_CLEAN` / :data:`EXIT_FINDINGS` / :data:`EXIT_USAGE`)
  and one reporting surface (:func:`add_report_arguments`);
* the static rule set the engine runs is assembled here (SIM rules
  plus the MC spec rules), so "lint the tree" always means the full
  static contract.

Import direction: ``lint.rules`` and ``lint.engine`` stay free of
modelcheck imports; this module sits above both and is what the
CLIs consume.
"""

from __future__ import annotations

import argparse
from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.lint.rules import ALL_RULES, Rule

#: Shared CLI exit-code contract for repro.lint / repro.sanitize /
#: repro.modelcheck / repro.scenario: clean, findings reported, usage
#: error.
EXIT_CLEAN = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2

#: Runtime model-check invariants (emitted by the explorer harness,
#: not by an AST rule), mirroring sanitize's VIOLATION_CODES shape.
MODELCHECK_RUNTIME_CODES = {
    "MC311": "established-displaced",
    "MC312": "stable-double-claim",
}

_RUNTIME_DESCRIPTIONS = {
    # SAN2xx — repro.sanitize shadow-state probes.
    "SAN201": "an address allocated while already allocated",
    "SAN202": "an allocation outside the address space bounds",
    "SAN203": "a free of an address that was never allocated",
    "SAN204": "a withdrawn/expired session used or re-announced",
    "SAN211": "a packet delivered beyond its TTL scope",
    "SAN221": "the simulated clock moved backwards",
    "SAN222": "an event scheduled in the simulated past",
    "SAN223": "a cancelled event handle fired anyway",
    "SAN224": "the scheduler re-entered run() while running",
    "SAN231": "directory caches diverged at loss-free quiescence",
    "SAN232": "a cache accepted a version older than it already had",
    # MC31x — repro.modelcheck explorer invariants.
    "MC311": "an established session displaced from its address by "
             "a newcomer (paper section 3 safety guarantee)",
    "MC312": "a loss-free trace quiesced with two directories "
             "claiming the same address",
}


@dataclass(frozen=True)
class RegistryEntry:
    """One check: static AST rule or runtime invariant probe."""

    code: str
    name: str
    kind: str  # "static" | "runtime"
    tool: str  # lint|sanitize|modelcheck|scenario
    description: str
    scope: Optional[frozenset] = None
    advisory: bool = False


def add_report_arguments(parser: argparse.ArgumentParser) -> None:
    """The reporting flags every tool CLI shares.

    Each of the four CLIs used to wire ``--format``/``--list-rules``
    by hand, slightly different ways; this is the one place the
    contract lives now.
    """
    parser.add_argument(
        "--format", choices=("text", "json", "github"), default="text",
        help="output format (github emits Actions annotations)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the full cross-tool rule registry and exit",
    )


def static_rules() -> Tuple[Rule, ...]:
    """The full static rule set: SIM1xx plus the MC30x spec rules."""
    from repro.modelcheck.astcheck import MC_RULES

    return ALL_RULES + MC_RULES


def get_static_rules(select: Optional[List[str]] = None,
                     ignore: Optional[List[str]] = None
                     ) -> Tuple[Rule, ...]:
    """The active static set after ``--select``/``--ignore`` filters.

    Raises:
        ValueError: if an unknown rule name is given.
    """
    rules = static_rules()
    known = {rule.name for rule in rules}
    for name in (select or []) + (ignore or []):
        if name not in known:
            raise ValueError(
                f"unknown rule {name!r}; known: {sorted(known)}"
            )
    chosen = list(rules)
    if select:
        chosen = [r for r in chosen if r.name in set(select)]
    if ignore:
        chosen = [r for r in chosen if r.name not in set(ignore)]
    return tuple(chosen)


def all_entries() -> Tuple[RegistryEntry, ...]:
    """Every check across the four tools, in code order."""
    from repro.sanitize.report import VIOLATION_CODES
    from repro.scenario.rules import (
        SCENARIO_ADVISORY_CODES,
        SCENARIO_RULE_DESCRIPTIONS,
        SCENARIO_RUNTIME_CODES,
    )

    entries = [
        RegistryEntry(
            code=rule.code, name=rule.name, kind="static",
            tool="modelcheck" if rule.code.startswith("MC") else "lint",
            description=rule.description, scope=rule.scope,
        )
        for rule in static_rules()
    ]
    for code, name in VIOLATION_CODES.items():
        entries.append(RegistryEntry(
            code=code, name=name, kind="runtime", tool="sanitize",
            description=_RUNTIME_DESCRIPTIONS.get(code, ""),
        ))
    for code, name in MODELCHECK_RUNTIME_CODES.items():
        entries.append(RegistryEntry(
            code=code, name=name, kind="runtime", tool="modelcheck",
            description=_RUNTIME_DESCRIPTIONS.get(code, ""),
        ))
    for code, name in SCENARIO_RUNTIME_CODES.items():
        entries.append(RegistryEntry(
            code=code, name=name, kind="runtime", tool="scenario",
            description=SCENARIO_RULE_DESCRIPTIONS.get(code, ""),
            advisory=code in SCENARIO_ADVISORY_CODES,
        ))
    return tuple(sorted(entries, key=lambda entry: entry.code))


def render_registry() -> str:
    """``--list-rules`` text, shared by all four CLIs."""
    lines = []
    for entry in all_entries():
        if entry.kind == "static":
            where = ("everywhere" if entry.scope is None
                     else "repro.{" + ",".join(sorted(entry.scope)) + "}")
            origin = f"static/{entry.tool} [{where}]"
        else:
            origin = f"runtime/{entry.tool}"
        if entry.advisory:
            origin += " (advisory)"
        lines.append(f"{entry.code} {entry.name:<26s} {origin}")
        lines.append(f"        {entry.description}")
    return "\n".join(lines)

