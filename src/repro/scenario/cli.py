"""``python -m repro.scenario`` — the scenario/fuzzing CLI.

Same contract as the other three tools: exit 0 clean, 1 findings,
2 usage error; ``--list-rules`` prints the shared registry;
``--format github`` emits Actions annotations.

Three verbs:

* ``run`` — execute one :class:`ScenarioSpec` from ``--spec FILE``
  (or the neutral baseline); hard SCN/SAN violations exit 1.
* ``replay`` — re-run a counterexample artifact (``--artifact FILE``,
  the JSON the fuzzer emitted) and verify the trace hash; a mismatch
  is SCN912 and exits 1.
* ``fuzz`` — a bounded campaign (``--runs N``); *found* violations
  are the product and exit 0, only an SCN912 replay failure — the
  determinism machinery itself breaking — exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import List, Optional

from repro.experiments.pool import worker_count
from repro.lint.registry import (
    EXIT_CLEAN,
    EXIT_FINDINGS,
    EXIT_USAGE,
    add_report_arguments,
    render_registry,
)
from repro.scenario.cache import DEFAULT_CACHE_FILE, RunCache
from repro.scenario.engine import (
    DEFAULT_MAX_EVENTS,
    ScenarioRun,
    run_spec,
)
from repro.scenario.fuzz import FUZZ_MAX_EVENTS, FuzzReport, run_fuzz
from repro.scenario.rules import SCENARIO_ADVISORY_CODES
from repro.scenario.spec import ScenarioSpec

#: The repo-wide scenario seed (1998-09-02, the SIGCOMM'98 week).
DEFAULT_SEED = 0x19980902


def _seed_value(text: str) -> int:
    """Seed argument: decimal or prefixed (0x/0o/0b) literal."""
    return int(text, 0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-scenario",
        description=("declarative workload/adversary scenarios "
                     "(SCN901–905 invariants) with a deterministic "
                     "generate-run-shrink fuzzing loop"),
    )
    parser.add_argument(
        "command", nargs="?", choices=("run", "replay", "fuzz"),
        default="fuzz",
        help="run one spec, replay an artifact, or fuzz (default)",
    )
    add_report_arguments(parser)
    parser.add_argument(
        "--spec", metavar="FILE",
        help="ScenarioSpec JSON for 'run' (default: the baseline "
             "spec)",
    )
    parser.add_argument(
        "--artifact", metavar="FILE",
        help="counterexample artifact JSON for 'replay'",
    )
    parser.add_argument(
        "--seed", type=_seed_value, default=DEFAULT_SEED,
        help=f"campaign/run seed, decimal or 0x hex "
             f"(default: {DEFAULT_SEED:#x})",
    )
    parser.add_argument(
        "--runs", type=int, default=100, metavar="N",
        help="fuzz campaign size (default: 100)",
    )
    parser.add_argument(
        "--max-events", type=int, default=None, metavar="N",
        help="per-run event budget, the deterministic timeout "
             f"(default: {DEFAULT_MAX_EVENTS} for run/replay, "
             f"{FUZZ_MAX_EVENTS} for fuzz)",
    )
    parser.add_argument(
        "--jobs", type=worker_count, default=1, metavar="N",
        help="fuzz worker processes (same report, any worker "
             "count)",
    )
    parser.add_argument(
        "--corpus-out", metavar="DIR",
        help="write fuzz artifacts here: report.json plus one "
             "minimized-<index>.json per shrunk counterexample",
    )
    parser.add_argument(
        "--no-shrink", action="store_true",
        help="skip delta-debug minimization of counterexamples",
    )
    parser.add_argument(
        "--shrink-budget", type=int, default=48, metavar="N",
        help="candidate runs allowed per shrink (default: 48)",
    )
    parser.add_argument(
        "--trace", action="store_true",
        help="also print the run's full trace (run/replay)",
    )
    parser.add_argument(
        "--out", metavar="FILE",
        help="also write the report to this file",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="always re-run, ignoring the on-disk run cache",
    )
    parser.add_argument(
        "--cache-file", default=DEFAULT_CACHE_FILE,
        help=f"run cache location (default: {DEFAULT_CACHE_FILE})",
    )
    return parser


def _load_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as handle:
        payload = json.load(handle)
    if not isinstance(payload, dict):
        raise ValueError(f"{path}: expected a JSON object")
    return payload


def _emit(text: str, out: Optional[str]) -> None:
    print(text)
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text if text.endswith("\n") else text + "\n")


# ---------------------------------------------------------------------
# run / replay
# ---------------------------------------------------------------------
def _render_run_text(run: ScenarioRun) -> str:
    lines = [run.summary()]
    for violation in run.violations:
        lines.append(violation.format())
    return "\n".join(lines)


def _render_run_github(run: ScenarioRun) -> str:
    lines = []
    for violation in run.violations:
        level = ("notice" if violation.code in SCENARIO_ADVISORY_CODES
                 else "error")
        lines.append(
            f"::{level} title={violation.code} "
            f"[{violation.rule}]::scenario {run.spec.name} "
            f"(digest {run.digest}) t={violation.time:.4f}: "
            f"{violation.message}"
        )
    return "\n".join(lines)


def _report_run(run: ScenarioRun, args: argparse.Namespace) -> None:
    if args.format == "json":
        _emit(json.dumps(run.to_dict(), indent=2, sort_keys=True),
              args.out)
    elif args.format == "github":
        output = _render_run_github(run)
        if output:
            _emit(output, args.out)
    else:
        _emit(_render_run_text(run), args.out)
    if args.trace and args.format != "json":
        print(run.trace, end="")


def cmd_run(args: argparse.Namespace) -> int:
    if args.spec:
        spec = ScenarioSpec.from_dict(_load_json(args.spec))
    else:
        spec = ScenarioSpec()
    spec.validate()
    budget = (args.max_events if args.max_events is not None
              else DEFAULT_MAX_EVENTS)
    run = run_spec(spec, args.seed, max_events=budget)
    _report_run(run, args)
    return EXIT_CLEAN if run.clean else EXIT_FINDINGS


def cmd_replay(args: argparse.Namespace) -> int:
    if not args.artifact:
        raise ValueError("replay requires --artifact FILE")
    artifact = _load_json(args.artifact)
    # Corpus files wrap the artifact; bare artifacts work too.
    if "artifact" in artifact and isinstance(artifact["artifact"],
                                             dict):
        artifact = artifact["artifact"]
    for field in ("spec", "seed", "trace_sha256"):
        if field not in artifact:
            raise ValueError(
                f"{args.artifact}: artifact missing {field!r}")
    spec = ScenarioSpec.from_dict(artifact["spec"])
    # A trace is only reproducible under the budget it ran with; the
    # artifact records it, an explicit --max-events overrides.
    if args.max_events is not None:
        budget = args.max_events
    else:
        budget = int(artifact.get("max_events", DEFAULT_MAX_EVENTS))
    run = run_spec(spec, int(artifact["seed"]), max_events=budget)
    expected = artifact["trace_sha256"]
    replayed = run.trace_sha256()
    _report_run(run, args)
    if replayed != expected:
        message = (f"SCN912 [replay-mismatch] artifact expected "
                   f"trace {expected}, replay produced {replayed}")
        if args.format == "github":
            print(f"::error title=SCN912 [replay-mismatch]::{message}")
        else:
            print(message)
        return EXIT_FINDINGS
    print(f"replay ok: trace {replayed} reproduced "
          f"({len(run.hard_violations)} hard violations, as recorded)")
    return EXIT_CLEAN


# ---------------------------------------------------------------------
# fuzz
# ---------------------------------------------------------------------
def _render_fuzz_text(report: FuzzReport) -> str:
    lines = [report.summary()]
    for entry in report.counterexamples:
        codes = ",".join(entry["codes"])
        line = (f"counterexample run {entry['index']}: {codes} "
                f"(digest {entry['artifact']['digest']})")
        if entry["shrunk"]:
            minimized = entry["minimized"]
            line += (f" minimized to "
                     f"{len(minimized['active_fields'])} active "
                     f"field(s): "
                     f"{', '.join(minimized['active_fields']) or '—'}")
        lines.append(line)
    for failure in report.replay_failures:
        lines.append(
            f"SCN912 [replay-mismatch] run {failure['index']} "
            f"(digest {failure['digest']}): expected "
            f"{failure['expected_trace_sha256']}, got "
            f"{failure['replayed_trace_sha256']}"
        )
    return "\n".join(lines)


def _render_fuzz_github(report: FuzzReport) -> str:
    lines = [
        f"::notice title=scenario fuzz::{report.summary()}",
    ]
    for entry in report.counterexamples:
        codes = ",".join(entry["codes"])
        lines.append(
            f"::notice title=scenario counterexample::run "
            f"{entry['index']} digest "
            f"{entry['artifact']['digest']}: {codes}"
        )
    for failure in report.replay_failures:
        lines.append(
            f"::error title=SCN912 [replay-mismatch]::run "
            f"{failure['index']} digest {failure['digest']}: "
            f"expected {failure['expected_trace_sha256']}, got "
            f"{failure['replayed_trace_sha256']}"
        )
    return "\n".join(lines)


def _write_corpus(report: FuzzReport, directory: str) -> None:
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "report.json"), "w",
              encoding="utf-8") as handle:
        json.dump(report.to_dict(), handle, indent=2, sort_keys=True)
        handle.write("\n")
    for entry in report.counterexamples:
        payload = {
            "artifact": entry["artifact"],
            "codes": entry["codes"],
        }
        if entry["shrunk"]:
            payload["minimized"] = entry["minimized"]
        path = os.path.join(directory,
                            f"minimized-{entry['index']}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=2, sort_keys=True)
            handle.write("\n")


def cmd_fuzz(args: argparse.Namespace) -> int:
    if args.runs < 1:
        raise ValueError(f"--runs must be >= 1, got {args.runs}")
    budget = (args.max_events if args.max_events is not None
              else FUZZ_MAX_EVENTS)
    cache = None if args.no_cache else RunCache(args.cache_file)
    report = run_fuzz(
        args.seed, args.runs, max_events=budget, jobs=args.jobs,
        shrink=not args.no_shrink, shrink_budget=args.shrink_budget,
        cache=cache,
    )
    if cache is not None:
        cache.save()
    if args.corpus_out:
        _write_corpus(report, args.corpus_out)
    if args.format == "json":
        _emit(json.dumps(report.to_dict(), indent=2, sort_keys=True),
              args.out)
    elif args.format == "github":
        _emit(_render_fuzz_github(report), args.out)
    else:
        _emit(_render_fuzz_text(report), args.out)
    return EXIT_CLEAN if report.machinery_ok else EXIT_FINDINGS


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.list_rules:
        print(render_registry())
        return EXIT_CLEAN

    try:
        if args.command == "run":
            return cmd_run(args)
        if args.command == "replay":
            return cmd_replay(args)
        return cmd_fuzz(args)
    except (ValueError, FileNotFoundError) as exc:
        print(f"repro-scenario: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
