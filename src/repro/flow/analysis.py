"""Orchestrator: build the graph, run the provenance analysis.

``analyze_paths`` is the programmatic entry the CLI and the tier-1
test share.  It applies ``# simlint: disable=<rule>`` suppressions
(same syntax and parser as the linter; whole-program findings are
suppressed at the line they are *reported* on) and serves
byte-identical reports from the whole-tree cache when nothing changed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.flow.cache import (
    DEFAULT_CACHE_FILE,
    FlowCache,
    tree_digest,
)
from repro.flow.graph import shared_graph
from repro.flow.provenance import analyze_provenance
from repro.flow.rules import FLOW_RULE_NAMES
from repro.lint.engine import (
    Finding,
    iter_python_files,
    parse_suppressions,
)


@dataclass
class FlowReport:
    """Everything one run produces."""

    findings: List[Finding]            # unsuppressed
    suppressed: int = 0
    stats: Dict[str, int] = field(default_factory=dict)
    from_cache: bool = False

    def to_dict(self) -> Dict[str, Any]:
        return {
            "count": len(self.findings),
            "findings": [f.to_dict() for f in self.findings],
            "suppressed": self.suppressed,
            "stats": self.stats,
        }

    @classmethod
    def from_dict(cls, raw: Dict[str, Any]) -> "FlowReport":
        return cls(
            findings=[Finding(**f) for f in raw.get("findings", [])],
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
    """Raises ValueError on a name not in the FLOW rule table."""
    known = set(FLOW_RULE_NAMES)
    for name in (select or []) + (ignore or []):
        if name not in known:
            raise ValueError(
                f"unknown rule {name!r}; known: "
                f"{sorted(known)}"
            )


def analyze_sources(sources: Sequence[Tuple[str, str]]) -> FlowReport:
    """Run the analysis over ``(path, text)`` pairs."""
    graph = shared_graph(sources)
    provenance = analyze_provenance(graph)

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

    findings = [f for f in provenance.findings if keep(f)]

    return FlowReport(
        findings=findings,
        suppressed=suppressed,
        stats={
            "modules": len(graph.modules),
            "functions": len(graph.functions),
            "classes": len(graph.classes),
            "draw_sites": len(provenance.draw_sites),
        },
    )


def analyze_paths(paths: Sequence[str],
                  use_cache: bool = True,
                  cache_file: str = DEFAULT_CACHE_FILE
                  ) -> FlowReport:
    """Analyze every ``.py`` under ``paths``.

    Raises:
        FileNotFoundError: if a named path does not exist.
    """
    sources: List[Tuple[str, str]] = []
    for file_path in iter_python_files(paths):
        text = Path(file_path).read_text(encoding="utf-8")
        sources.append((file_path, text))

    cache = FlowCache(cache_file) if use_cache else None
    digest = tree_digest(sources)
    if cache is not None:
        cached = cache.lookup(digest)
        if cached is not None:
            return FlowReport.from_dict(cached)

    report = analyze_sources(sources)
    if cache is not None:
        cache.store(digest, report.to_dict())
    return report
