"""Renderers for flow reports: text, JSON, GitHub annotations.

Hard findings render exactly like the linter's (same ``Finding``
shape, same ``::error`` annotations).  Advisory findings are extra:
text gets a separate section, JSON gets ``advisory``, GitHub gets
``::notice`` lines so the Actions UI surfaces them without failing
the check.
"""

from __future__ import annotations

import json
from typing import List

from repro.flow.analysis import FlowReport
from repro.lint.report import render_github as _github_errors


def render_text(report: FlowReport, strict: bool = False) -> str:
    lines: List[str] = [f.format() for f in report.findings]
    count = len(report.findings)
    if count == 0:
        lines.append("repro-flow: clean (0 findings)")
    else:
        noun = "finding" if count == 1 else "findings"
        lines.append(f"repro-flow: {count} {noun}")
    if report.advisory:
        label = "errors under --strict" if strict else "report-only"
        lines.append(f"advisory ({len(report.advisory)} sites, "
                     f"{label}):")
        for finding in report.advisory[:10]:
            lines.append("  " + finding.format())
        rest = len(report.advisory) - 10
        if rest > 0:
            lines.append(f"  ... and {rest} more "
                         f"(--format json for all)")
    if report.suppressed:
        lines.append(f"suppressed: {report.suppressed}")
    if report.stats:
        lines.append(
            "graph: {modules} modules, {functions} functions, "
            "{fleet_jobs} fleet jobs, {draw_sites} draw sites".format(**{
                key: report.stats.get(key, 0)
                for key in ("modules", "functions", "fleet_jobs",
                            "draw_sites")
            })
        )
    if report.from_cache:
        lines.append("(cached: tree unchanged)")
    return "\n".join(lines)


def render_json(report: FlowReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)


def render_github(report: FlowReport, strict: bool = False) -> str:
    lines: List[str] = []
    hard = _github_errors(report.findings)
    if hard:
        lines.append(hard)
    for finding in report.advisory:
        message = f"{finding.code} [{finding.rule}] {finding.message}"
        directive = "error" if strict else "notice"
        lines.append(f"::{directive} file={finding.path},"
                     f"line={max(finding.line, 1)},"
                     f"col={finding.col}::{message}")
    return "\n".join(lines)
