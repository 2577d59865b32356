"""``python -m repro.flow`` — the whole-program analysis CLI.

Same contract as the other five tools: exit 0 clean, 1 findings,
2 usage error; ``--list-rules`` prints the shared registry;
``--format github`` emits Actions annotations.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.flow.analysis import (
    _filter_rules,
    analyze_paths,
    validate_rule_names,
)
from repro.flow.cache import DEFAULT_CACHE_FILE
from repro.flow.report import render_json, render_text
from repro.lint.registry import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    add_report_arguments,
    render_registry,
)
from repro.lint.report import render_github


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-flow",
        description=("whole-program call-graph and dataflow analysis: "
                     "RNG provenance (FLOW60x)"),
    )
    parser.add_argument(
        "paths", nargs="*", default=["src"],
        help="files or directories to analyze (default: src)",
    )
    add_report_arguments(parser)
    parser.add_argument(
        "--select", action="append", metavar="RULE",
        help="only report these rule names (repeatable)",
    )
    parser.add_argument(
        "--ignore", action="append", metavar="RULE",
        help="skip these rule names (repeatable)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always re-analyze, ignoring the whole-tree cache",
    )
    parser.add_argument(
        "--cache-file", default=DEFAULT_CACHE_FILE,
        help=f"cache location (default: {DEFAULT_CACHE_FILE})",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_registry())
        return EXIT_CLEAN

    try:
        validate_rule_names(args.select, args.ignore)
        report = analyze_paths(
            args.paths,
            use_cache=not args.no_cache,
            cache_file=args.cache_file,
        )
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro-flow: error: {exc}", file=sys.stderr)
        return EXIT_USAGE

    report.findings = _filter_rules(report.findings, args.select,
                                    args.ignore)

    if args.format == "json":
        print(render_json(report))
    elif args.format == "github":
        output = render_github(report.findings)
        if output:
            print(output)
    else:
        print(render_text(report))

    if report.findings:
        return EXIT_FINDINGS
    return EXIT_CLEAN


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
