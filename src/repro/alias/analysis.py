"""Orchestrator: graph -> engine -> ledger -> report, cached.

``analyze_paths`` is the programmatic entry the CLI and the tier-1
tests share.  It reuses the shared flow graph (one parse for flow
and alias in the same process), runs the escape/aliasing engine,
joins the ledger against the flow hot-path ranking, emits the
ALIAS812 per-class rollup advisories for blocked ``core/``/``sim/``
classes, applies ``# simlint: disable=<rule>`` suppressions at the
reported line, and serves byte-identical results from the whole-tree
cache when nothing changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.alias.cache import (
    DEFAULT_CACHE_FILE,
    alias_cache,
    tree_digest,
)
from repro.alias.engine import analyze_alias
from repro.alias.ledger import build_ledger
from repro.alias.rules import ALIAS_RULE_NAMES
from repro.flow.graph import shared_graph
from repro.flow.hotpath import analyze_hotpaths
from repro.lint.engine import (
    Finding,
    iter_python_files,
    parse_suppressions,
)


@dataclass
class AliasReport:
    """Everything one run produces."""

    findings: List[Finding]            # hard ALIAS801-805, unsuppressed
    advisory: List[Finding]            # ALIAS806-814 blockers
    ledger: Dict[str, Any] = field(default_factory=dict)
    suppressed: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    from_cache: bool = False

    def exit_findings(self, strict: bool = False) -> List[Finding]:
        if strict:
            return self.findings + self.advisory
        return self.findings

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": len(self.findings),
            "findings": [f.to_dict() for f in self.findings],
            "advisory_count": len(self.advisory),
            "advisory": [f.to_dict() for f in self.advisory],
            "ledger": self.ledger,
            "suppressed": self.suppressed,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "AliasReport":
        return cls(
            findings=[Finding(**f) for f in raw.get("findings", [])],
            advisory=[Finding(**f) for f in raw.get("advisory", [])],
            ledger=dict(raw.get("ledger", {})),
            suppressed=int(raw.get("suppressed", 0)),
            stats=dict(raw.get("stats", {})),
            from_cache=True,
        )


def _filter_rules(findings: Sequence[Finding],
                  select: Optional[List[str]],
                  ignore: Optional[List[str]]) -> List[Finding]:
    out = list(findings)
    if select:
        chosen = set(select)
        out = [f for f in out if f.rule in chosen]
    if ignore:
        dropped = set(ignore)
        out = [f for f in out if f.rule not in dropped]
    return out


def validate_rule_names(select: Optional[List[str]],
                        ignore: Optional[List[str]]) -> None:
    """Raises ValueError on a name not in the ALIAS rule table."""
    known = set(ALIAS_RULE_NAMES)
    for name in (select or []) + (ignore or []):
        if name not in known:
            raise ValueError(
                f"unknown rule {name!r}; known: {sorted(known)}"
            )


def _rollup_findings(ledger: Dict[str, Any]) -> List[Finding]:
    """ALIAS812: one advisory per blocked core/sim class."""
    out: List[Finding] = []
    for entry in ledger.get("entries", []):
        if entry["verdict"] == "soa-safe":
            continue
        if not entry["qualname"].startswith(("repro.core.",
                                             "repro.sim.")):
            continue
        blockers = ", ".join(entry["blocking_rules"])
        out.append(Finding(
            path=entry["path"], line=entry["line"], col=0,
            code="ALIAS812", rule="soa-blocked",
            message=(f"{entry['class']} is {entry['verdict']} "
                     f"(escape: {entry['escape']}; blockers: "
                     f"{blockers}); see alias-ledger.json"),
        ))
    return out


def analyze_sources(sources: Sequence[Tuple[str, str]]
                    ) -> AliasReport:
    """Run the escape/aliasing engine over ``(path, text)`` pairs."""
    graph = shared_graph(sources)
    result = analyze_alias(graph)
    hot = analyze_hotpaths(graph)
    ledger = build_ledger(result, hot)

    hard = list(result.findings)
    advisory = list(result.advisory) + _rollup_findings(ledger)

    # Apply # simlint: disable suppressions at the reported line.
    suppressions = {path: parse_suppressions(text)
                    for path, text in sources}
    suppressed = 0

    def keep(finding: Finding) -> bool:
        nonlocal suppressed
        marks = suppressions.get(finding.path)
        if marks is not None and marks.suppressed(finding.line,
                                                  finding.rule):
            suppressed += 1
            return False
        return True

    hard = [f for f in hard if keep(f)]
    advisory = [f for f in advisory if keep(f)]
    hard.sort(key=lambda f: (f.path, f.line, f.col, f.code))
    advisory.sort(key=lambda f: (f.path, f.line, f.col, f.code))

    stats = dict(result.stats)
    stats["modules"] = len(graph.modules)
    for key, value in ledger["summary"].items():
        stats[f"ledger_{key}"] = value

    return AliasReport(
        findings=hard,
        advisory=advisory,
        ledger=ledger,
        suppressed=suppressed,
        stats=stats,
    )


def analyze_paths(paths: Sequence[str],
                  use_cache: bool = True,
                  cache_file: str = DEFAULT_CACHE_FILE
                  ) -> AliasReport:
    """Analyze every ``.py`` under ``paths``.

    Raises:
        FileNotFoundError: if a named path does not exist.
    """
    sources: List[Tuple[str, str]] = []
    for file_path in iter_python_files(paths):
        text = Path(file_path).read_text(encoding="utf-8")
        sources.append((file_path, text))

    cache = alias_cache(cache_file) if use_cache else None
    digest = tree_digest(sources)
    if cache is not None:
        cached = cache.lookup(digest)
        if cached is not None:
            return AliasReport.from_dict(cached)

    report = analyze_sources(sources)
    if cache is not None:
        cache.store(digest, report.to_dict())
    return report
