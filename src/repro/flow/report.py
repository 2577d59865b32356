"""Renderers for flow reports: text and JSON.

Findings render exactly like the linter's (same ``Finding`` shape);
``--format github`` uses the linter's renderer as is.
"""

from __future__ import annotations

import json
from typing import List

from repro.flow.analysis import FlowReport


def render_text(report: FlowReport) -> str:
    lines: List[str] = [f.format() for f in report.findings]
    count = len(report.findings)
    if count == 0:
        lines.append("repro-flow: clean (0 findings)")
    else:
        noun = "finding" if count == 1 else "findings"
        lines.append(f"repro-flow: {count} {noun}")
    if report.suppressed:
        lines.append(f"suppressed: {report.suppressed}")
    if report.stats:
        lines.append(
            "graph: {modules} modules, {functions} functions, "
            "{draw_sites} draw sites".format(**{
                key: report.stats.get(key, 0)
                for key in ("modules", "functions", "draw_sites")
            })
        )
    if report.from_cache:
        lines.append("(cached: tree unchanged)")
    return "\n".join(lines)


def render_json(report: FlowReport) -> str:
    return json.dumps(report.to_dict(), indent=2, sort_keys=True)

