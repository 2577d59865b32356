"""``python -m repro.lint`` — lint the tree, or run the determinism
harness.

Exit status follows the shared contract in
:mod:`repro.lint.registry`: 0 when clean, 1 when any unsuppressed
finding (or a trace divergence, with ``--determinism``) is reported,
2 on usage errors.

The static rule set is the full registry — SIM1xx determinism rules
plus the MC30x protocol-spec cross-checks — and ``--list-rules``
prints every check the repo's four analysis tools run, including the
runtime SAN2xx / MC31x / SCN9xx codes that only ``repro.sanitize``,
``repro.modelcheck`` and ``repro.scenario`` can emit.

Every run lints the named paths afresh, in one pass: the stream-key
collision check (SIM116) compares call sites across all of them.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.lint.engine import lint_paths
from repro.lint.registry import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    add_report_arguments,
    get_static_rules,
    render_registry,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro.lint",
        description="AST-based determinism & simulation-correctness "
                    "linter for the repro tree",
    )
    parser.add_argument("paths", nargs="*", default=["src"],
                        help="files or directories (default: src)")
    add_report_arguments(parser)
    parser.add_argument("--select", nargs="+", metavar="RULE",
                        help="run only these rules")
    parser.add_argument("--ignore", nargs="+", metavar="RULE",
                        help="skip these rules")
    parser.add_argument("--determinism", action="store_true",
                        help="also run the run-twice determinism "
                             "harness")
    parser.add_argument("--seed", type=int, default=1998,
                        help="seed for --determinism")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list_rules:
        print(render_registry())
        return EXIT_CLEAN
    try:
        rules = get_static_rules(select=args.select, ignore=args.ignore)
    except ValueError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        findings = lint_paths(args.paths, rules=rules)
    except FileNotFoundError as exc:
        print(f"repro.lint: {exc}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        from repro.lint.report import render_json

        print(render_json(findings))
    elif args.format == "github":
        from repro.lint.report import render_github

        output = render_github(findings)
        if output:
            print(output)
    else:
        from repro.lint.report import render_text

        print(render_text(findings))
    status = EXIT_CLEAN if not findings else EXIT_FINDINGS
    if args.determinism:
        from repro.lint.determinism import verify

        report = verify(seed=args.seed)
        print(report.format())
        if not report.identical:
            status = EXIT_FINDINGS
    return status


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
