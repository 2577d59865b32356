#!/usr/bin/env python3
"""Append one record to the performance trajectory, BENCH_trajectory.jsonl.

The input is the JSONL file that ``perfbench/run.py --out`` appends to,
holding the untraced runs of one checkout::

    python3 perfbench/run.py --workload sap-refresh --seed 1998 \\
        --seconds 8 --trace 0 --out runs.jsonl
    python3 scripts/bench_record.py runs.jsonl --note "parent"

The record holds the measured commit, the date, the host-speed scale
(the median of the runs' probe scales, reference seconds per wall
second), the runs' ``--seconds`` and, per workload and seed, the
median of each end-to-end metric over the runs and their number.  The
commit defaults to this checkout's ``HEAD``; name it with ``--commit``
when the runs came from another one.  A checkout with uncommitted
changes (other than to the trajectory) has no commit id yet: its
record has ``"commit": null`` and names the commit the changes sit on
as ``"uncommitted_on"``.  Wall times depend on the host, so nothing
asserts on the trajectory.
"""

from __future__ import annotations

import argparse
import datetime
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))

from compare import load, quartiles  # noqa: E402
from hostspeed import scale  # noqa: E402

TRAJECTORY = ROOT / "BENCH_trajectory.jsonl"


def record(runs_path: Path, commit: Dict[str, Optional[str]],
           note: str) -> Dict[str, Any]:
    """The trajectory record of the untraced runs in ``runs_path``."""
    untraced, __ = load(runs_path)
    if not untraced:
        raise ValueError("no untraced perfbench runs in the input")
    scales: List[float] = []
    seconds = set()
    workloads = {}
    for workload, runs in sorted(untraced.items()):
        seeds: Dict[str, List[Dict[str, Any]]] = {}
        for run in runs:
            if run["result"]["failed"]:
                raise ValueError(f"{workload} seed {run['seed']}: a "
                                 f"repetition failed its checks")
            seeds.setdefault(str(run["seed"]), []).append(
                run["result"]["metrics"])
            scales.extend(scale(rep["probes"]) for rep in run["reps"])
            seconds.add(run["seconds"])
        workloads[workload] = {seed: _medians(seed_runs)
                               for seed, seed_runs in sorted(seeds.items())}
    return {**commit,
            "date": datetime.date.today().isoformat(),
            "host_scale": round(statistics.median(scales), 4),
            "seconds": sorted(seconds),
            "note": note,
            "workloads": workloads}


def _medians(runs: List[Dict[str, Any]]) -> Dict[str, float]:
    """Each metric's median over ``runs``, and the number of runs."""
    medians = {name: quartiles([run[name]["value"] for run in runs])[1]
               for name in runs[0]}
    medians["runs"] = len(runs)
    return medians


def _head_commit() -> Dict[str, Optional[str]]:
    """This checkout's ``HEAD``, or, when a tracked file other than the
    trajectory differs from it, the commit the changes sit on."""
    def git(*args: str) -> str:
        return subprocess.run(["git", *args], cwd=ROOT, capture_output=True,
                              text=True, check=True).stdout.strip()

    head = git("rev-parse", "--short", "HEAD")
    if git("status", "--porcelain", "--untracked-files=no", "--", ".",
           f":!{TRAJECTORY.name}"):
        return {"commit": None, "uncommitted_on": head}
    return {"commit": head}


def main(argv: List[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("runs", type=Path,
                        help="JSONL file written by perfbench/run.py --out")
    parser.add_argument("--commit", help="the measured commit "
                        "(default: this checkout's HEAD)")
    parser.add_argument("--note", default="",
                        help="what was measured, e.g. parent or change")
    args = parser.parse_args(argv)
    commit = {"commit": args.commit} if args.commit else _head_commit()
    entry = record(args.runs, commit, args.note)
    with open(TRAJECTORY, "a", encoding="utf-8") as handle:
        handle.write(json.dumps(entry) + "\n")
    print(json.dumps(entry))
    return 0


if __name__ == "__main__":
    sys.exit(main())
