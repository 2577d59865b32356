"""Compare mode: two JSONL files of runs, parent against change.

For each workload and end-to-end metric this prints both sides'
medians and quartiles over their untraced runs, then a verdict:

* ``WORSE`` — the change's median is worse than the parent's by more
  than the metric's bound in ``BENCHMARK.json``;
* ``unresolved`` — either side's spread (quartile distance over
  median) is wider than the bound, and not every change run beats
  every parent run;
* ``better`` — the change wins at least nine in ten same-seed pairs
  and the medians differ by more than the parent's own spread;
* ``same`` — none of the above.

Per-layer counts from the traced runs that differ are listed after,
because an exact count change shows that the work itself changed.
The exit status is 1 when any metric is ``WORSE``.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path
from typing import Any, Dict, List, Tuple

Runs = Dict[str, List[Dict[str, Any]]]


def load(path: Path) -> Tuple[Runs, Runs]:
    """(untraced, traced) records per workload from a JSONL file."""
    untraced: Runs = {}
    traced: Runs = {}
    for line in path.read_text().splitlines():
        if line.strip():
            record = json.loads(line)
            side = traced if record["trace"] else untraced
            side.setdefault(record["workload"], []).append(record)
    return untraced, traced


def quartiles(values: List[float]) -> Tuple[float, float, float]:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: List[float]) -> float:
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else float("inf")


def verdict(parent: Dict[int, float], change: Dict[int, float],
            bound: float, better: str) -> str:
    """Judge one metric on one workload; values are keyed by seed."""
    sign = 1.0 if better == "lower" else -1.0
    before, after = list(parent.values()), list(change.values())
    parent_median = quartiles(before)[1]
    change_median = quartiles(after)[1]
    worse_by = sign * (change_median - parent_median) / parent_median
    if worse_by > bound:
        return "WORSE"
    dominates = max(sign * v for v in after) < min(sign * v
                                                   for v in before)
    if max(spread(before), spread(after)) > bound and not dominates:
        return "unresolved"
    pairs = [seed for seed in parent if seed in change]
    wins = sum(sign * change[s] < sign * parent[s] for s in pairs)
    if (pairs and wins >= 0.9 * len(pairs)
            and -worse_by > spread(before)):
        return "better"
    return "same"


def compare(parent_path: Path, change_path: Path,
            spec: Dict[str, Any]) -> int:
    parent, parent_traced = load(parent_path)
    change, change_traced = load(change_path)
    worse = 0
    print(f"{'workload':12s} {'metric':12s} {'parent q1/med/q3':>30s} "
          f"{'change q1/med/q3':>30s} {'delta':>8s} {'bound':>6s}  "
          f"verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in parent or workload not in change:
            side = "parent" if workload not in parent else "change"
            print(f"{workload:12s} no untraced runs in {side}")
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            before = {r["seed"]: r["result"]["metrics"][name]["value"]
                      for r in parent[workload]}
            after = {r["seed"]: r["result"]["metrics"][name]["value"]
                     for r in change[workload]}
            judged = verdict(before, after, metric["bound"],
                             metric["better"])
            worse += judged == "WORSE"
            p = quartiles(list(before.values()))
            c = quartiles(list(after.values()))
            print(f"{workload:12s} {name:12s} "
                  f"{_triple(p):>30s} {_triple(c):>30s} "
                  f"{(c[1] - p[1]) / p[1]:>+8.1%} "
                  f"{metric['bound']:>6.2f}  {judged}")
    for workload, records in parent_traced.items():
        if workload not in change_traced:
            continue
        before = records[0]["result"]["metrics"]
        after = change_traced[workload][0]["result"]["metrics"]
        for name in before:
            exact = name.endswith(("_calls", "_per_delivery"))
            if exact and before[name]["value"] != after[name]["value"]:
                print(f"{workload:12s} {name}: {before[name]['value']:g}"
                      f" -> {after[name]['value']:g}")
    return 1 if worse else 0


def _triple(values: Tuple[float, float, float]) -> str:
    return "/".join(f"{v:.4g}" for v in values)
