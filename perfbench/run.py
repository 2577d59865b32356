"""The repository's benchmark: SAP stack and allocators, end to end.

One workload, untraced (end-to-end metrics)::

    python3 perfbench/run.py --workload sap-churn --seed 1998 \\
        --seconds 30 --trace 0

The same workload traced (per-layer metrics; spans are written to
``perfbench/out/<workload>.spans.npz``)::

    python3 perfbench/run.py --workload sap-churn --seed 1998 --trace 1

Every workload, untraced for ``--runs`` seeds and traced once, each in
its own process so one workload's peak memory cannot reach another's::

    python3 perfbench/run.py --runs 1 --out perfbench/out/runs.jsonl

Two sets of runs, parent against change::

    python3 perfbench/run.py --compare parent.jsonl change.jsonl

A run prints one ``name value unit`` line per metric and ends with one
JSON line: ``correct``, ``attempted`` and ``failed`` count repetitions
and those whose fingerprint or invariants did not hold (so ``failed /
attempted`` is the error rate), and ``metrics`` maps each name to its
value and unit.  Times are in reference seconds: wall seconds scaled by
a host-speed probe (see ``hostspeed.py``).  A run whose checks failed
prints its result and exits
1.  The benchmark exits 1 without a result when the program's sources
are missing from the checkout.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text()) if (
    ROOT / "BENCHMARK.json").is_file() else {}

#: Repetitions a run makes even when they overrun ``--seconds``, so
#: every median (set-up included) has at least this many samples.
MIN_REPS = 3

#: Seeds whose fingerprints are committed in ``references.json``: the
#: development seed and a second seed kept for validating claims.
DEV_SEED = 1998


def _load_program() -> None:
    """Put the checkout's sources first on the path, or exit 1."""
    package = SRC / "repro" / "__init__.py"
    if not package.is_file():
        sys.exit(f"perfbench: no program sources at {package.parent}")
    sys.path.insert(0, str(SRC))
    import repro
    if Path(repro.__file__).resolve() != package.resolve():
        sys.exit(f"perfbench: imported repro from {repro.__file__}, "
                 f"not from {package.parent}")


def _references() -> Dict[str, Dict[str, Any]]:
    return json.loads((HERE / "references.json").read_text())


def peak_rss_mb() -> float:
    """This process's peak resident set size (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ----------------------------------------------------------------------
# One workload
# ----------------------------------------------------------------------
def traced_reps(workload):
    """An untraced repetition, a traced one, and the traced spans."""
    from layers import install
    from spans import SpanRecorder

    untraced = workload.rep()
    recorder = SpanRecorder()
    install(recorder)
    try:
        traced = workload.rep(recorder)
    finally:
        recorder.unpatch()
    return untraced, traced, recorder


def run_workload(name: str, seed: int, seconds: float,
                 traced: bool) -> Dict[str, Any]:
    """Run one workload; returns the result and its repetitions."""
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.warm()
    reps = []
    if traced:
        from layers import per_layer
        from spans import SpanStats

        untraced, traced_rep, recorder = traced_reps(workload)
        reps = [untraced, traced_rep]
        overhead = 100.0 * (traced_rep.run_s / untraced.run_s - 1.0)
        spec = SPEC["per_layer"]
        values = per_layer(SpanStats(recorder), traced_rep.counters,
                           overhead, [m["name"] for m in spec])
        recorder.write(OUT / f"{name}.spans.npz")
    else:
        # Repeat while the next repetition, if it takes as long as the
        # last one, still ends within the budget.
        elapsed = last = 0.0
        while len(reps) < MIN_REPS or elapsed + last <= seconds:
            begin = time.perf_counter()
            reps.append(workload.rep())
            last = time.perf_counter() - begin
            elapsed += last
        # Every repetition runs the same units.  A unit's time in one
        # repetition is its fastest sample there, scaled to reference
        # seconds by that repetition's host-speed probes; its cost is
        # the median over repetitions, and the timed region is the sum.
        run_s = sum(statistics.median(r.scale * min(samples)
                                      for r, samples in zip(reps, unit))
                    for unit in zip(*(r.units for r in reps)))
        values = {
            "setup_s": statistics.median(r.scale * r.setup_s
                                         for r in reps),
            "run_s": run_s,
            "work_per_s": reps[0].work / run_s,
            "peak_rss_mb": peak_rss_mb(),
        }
        spec = SPEC["end_to_end"]

    reference = _references().get(name, {}).get(str(seed))
    if reference is None:
        reference = reps[0].fingerprint
    failed = 0
    for number, rep in enumerate(reps):
        problems = list(rep.problems)
        if rep.fingerprint != reference:
            problems.append(f"fingerprint {rep.fingerprint} differs from "
                            f"the reference {reference}")
        for problem in problems:
            print(f"rep {number}: {problem}", file=sys.stderr)
        failed += bool(problems)
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec}
    return {
        "result": {"correct": failed == 0, "attempted": len(reps),
                   "failed": failed, "metrics": metrics},
        "fingerprint": reps[0].fingerprint,
        "reps": [{"setup_s": r.setup_s, "run_s": r.run_s,
                  "work": r.work, "units": r.units, "probes": r.probes}
                 for r in reps],
    }


def print_metrics(workload: str, metrics: Dict[str, Any]) -> None:
    for name, metric in metrics.items():
        print(f"{workload:12s} {name:52s} {metric['value']:>16.6g} "
              f"{metric['unit']}")


# ----------------------------------------------------------------------
# Every workload, each in a child process
# ----------------------------------------------------------------------
def run_all(args: argparse.Namespace) -> int:
    attempted = failed = 0
    combined: Dict[str, Any] = {}
    plan = [(name, args.seed + k, 0) for name in _workload_names()
            for k in range(args.runs)]
    plan += [(name, args.seed, 1) for name in _workload_names()]
    for name, seed, trace in plan:
        command = [sys.executable, str(Path(__file__).resolve()),
                   "--workload", name, "--seed", str(seed),
                   "--seconds", str(args.seconds), "--trace", str(trace)]
        if args.out:
            command += ["--out", args.out]
        child = subprocess.run(command, capture_output=True, text=True,
                               check=False)
        sys.stderr.write(child.stderr)
        lines = child.stdout.strip().splitlines()
        if (child.returncode not in (0, 1) or not lines
                or not lines[-1].startswith("{")):
            print(f"{name} seed {seed}: exited {child.returncode}",
                  file=sys.stderr)
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        attempted += result["attempted"]
        failed += result["failed"]
        for metric, entry in result["metrics"].items():
            combined[f"{name}/{metric}"] = entry
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": combined}))
    return 0 if failed == 0 else 1


def _workload_names() -> List[str]:
    return [w["name"] for w in SPEC["workloads"]]


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="SAP stack and allocator benchmark")
    parser.add_argument("--workload",
                        help="one workload; omit to run every workload")
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float,
                        default=SPEC.get("run_seconds", 30))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=1,
                        help="untraced seeds per workload when running "
                             "every workload (seed, seed+1, ...)")
    parser.add_argument("--out",
                        help="append each run's record to this JSONL file")
    parser.add_argument("--compare", nargs=2, metavar=("PARENT", "CHANGE"),
                        help="compare two JSONL files of runs")
    args = parser.parse_args(argv)
    if not SPEC:
        sys.exit("perfbench: BENCHMARK.json is missing")
    _load_program()
    if args.compare:
        from compare import compare
        return compare(Path(args.compare[0]), Path(args.compare[1]), SPEC)
    if args.workload is None:
        return run_all(args)
    if args.workload not in _workload_names():
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(_workload_names())}")
    record = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "a", encoding="utf-8") as handle:
            handle.write(json.dumps({
                "workload": args.workload, "seed": args.seed,
                "trace": args.trace, "seconds": args.seconds, **record,
            }) + "\n")
    print_metrics(args.workload, record["result"]["metrics"])
    print(json.dumps(record["result"]))
    return 0 if record["result"]["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
