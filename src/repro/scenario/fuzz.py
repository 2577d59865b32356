"""The bounded fuzz loop: sample, run, shrink, emit artifacts.

Run ``i`` of a fuzz campaign is fully determined by ``(seed, i)``:
the spec is sampled from ``derived_stream(f"scenario/fuzz/run-{i}",
seed)`` and then run with ``seed`` itself (the spec digest already
namespaces every engine stream).  Because rows are keyed by global
run index, splitting the campaign across worker processes cannot
change the report — :func:`fuzz_cell` is pure, returning rows, and
all impure work (shrinking, corpus writing, caching) stays in the
parent.

Every violating run is checked for **replayability** before it is
trusted: the spec travels through its JSON artifact and is re-run
from ``(spec, seed)`` alone; a trace-hash mismatch is SCN912 — the
one finding that fails the fuzz command itself, because it means the
determinism contract (not the protocol) broke.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional

from repro.experiments.pool import ordered_map
from repro.scenario.cache import RunCache, run_key
from repro.scenario.engine import run_spec
from repro.scenario.generator import sample_spec
from repro.scenario.rules import SCENARIO_ADVISORY_CODES
from repro.scenario.shrink import shrink_spec
from repro.scenario.spec import ScenarioSpec
from repro.sim.rng import derived_stream

#: Per-fuzz-run event budget: tighter than the engine default because
#: a fuzz campaign runs many specs and the circuit breakers usually
#: decide a doomed run's verdict within a few thousand events anyway.
FUZZ_MAX_EVENTS = 40_000

#: Shrinking is expensive (dozens of runs per counterexample); only
#: the first this-many violating runs are minimized per campaign.
#: The report marks the rest ``"shrunk": false`` — never silently.
MAX_SHRINKS = 3


def fuzz_stream_key(index: int) -> str:
    """The generator stream key for global run ``index``."""
    return f"scenario/fuzz/run-{index}"


def spec_for_run(index: int, seed: int) -> ScenarioSpec:
    """Re-sample run ``index``'s spec (pure in ``(index, seed)``)."""
    return sample_spec(derived_stream(fuzz_stream_key(index), seed),
                       name=f"fuzz-{index}")


def run_row(index: int, seed: int, max_events: int,
            cache: Optional[RunCache] = None) -> Dict[str, Any]:
    """Execute one fuzz run; returns its JSON-safe row.

    A cache hit returns the stored row without running — sound
    because runs are pure in ``(digest, seed, max_events)``, and
    cross-checked anyway: violating rows are later re-run from their
    artifact and must reproduce the stored trace hash.
    """
    spec = spec_for_run(index, seed)
    key = run_key(spec.digest(), seed, max_events)
    if cache is not None:
        hit = cache.get(key)
        if hit is not None:
            return dict(hit, index=index)
    run = run_spec(spec, seed, max_events=max_events)
    row = {
        "index": index,
        "digest": run.digest,
        "codes": run.codes(),
        "clean": run.clean,
        "sessions": run.sessions_created,
        "events": run.events_run,
        "trace_sha256": run.trace_sha256(),
    }
    if cache is not None:
        cache.put(key, {k: v for k, v in row.items() if k != "index"})
    return row


def fuzz_cell(params: Dict[str, Any]) -> List[Dict[str, Any]]:
    """The rows of one contiguous run range, for ``--jobs``.

    Pure in ``params`` alone; rows are keyed by *global* run index,
    so how the campaign is split cannot change its report.
    """
    start = params["start"]
    return [run_row(index, params["seed"], params["max_events"])
            for index in range(start, start + params["count"])]


@dataclass
class FuzzReport:
    """One campaign's deterministic, JSON-safe outcome."""

    seed: int
    runs: int
    max_events: int
    rows: List[Dict[str, Any]] = field(default_factory=list)
    counterexamples: List[Dict[str, Any]] = field(default_factory=list)
    replay_failures: List[Dict[str, Any]] = field(default_factory=list)

    def violating_rows(self) -> List[Dict[str, Any]]:
        return [row for row in self.rows if not row["clean"]]

    def code_histogram(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for row in self.rows:
            for code in row["codes"]:
                counts[code] = counts.get(code, 0) + 1
        return dict(sorted(counts.items()))

    @property
    def machinery_ok(self) -> bool:
        """False iff SCN912 fired — a replay failed to reproduce."""
        return not self.replay_failures

    def to_dict(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "runs": self.runs,
            "max_events": self.max_events,
            "violating": len(self.violating_rows()),
            "codes": self.code_histogram(),
            "counterexamples": self.counterexamples,
            "replay_failures": self.replay_failures,
            "rows": self.rows,
        }

    def summary(self) -> str:
        histogram = self.code_histogram()
        codes = ",".join(f"{code}={count}"
                         for code, count in histogram.items())
        shrunk = sum(1 for entry in self.counterexamples
                     if entry["shrunk"])
        return (f"fuzz seed={self.seed}: {self.runs} runs, "
                f"{len(self.violating_rows())} violating"
                f" ({codes or 'no codes'}), "
                f"{len(self.counterexamples)} counterexamples "
                f"({shrunk} minimized), "
                f"{len(self.replay_failures)} replay failures")


def _hard_codes(row: Dict[str, Any]) -> List[str]:
    return [code for code in row["codes"]
            if code not in SCENARIO_ADVISORY_CODES]


def _pool_rows(seed: int, runs: int, max_events: int,
               jobs: int) -> List[Dict[str, Any]]:
    """The campaign's rows in index order, over worker processes.

    The split into cells is a function of ``runs`` alone (never of
    ``jobs``), so any worker count reproduces the identical report.
    """
    cell_size = 5
    cells = [
        {"start": start, "count": min(cell_size, runs - start),
         "seed": seed, "max_events": max_events}
        for start in range(0, runs, cell_size)
    ]
    return [row for rows in ordered_map(fuzz_cell, cells, jobs)
            for row in rows]


def run_fuzz(seed: int, runs: int,
             max_events: int = FUZZ_MAX_EVENTS,
             jobs: int = 1, shrink: bool = True,
             shrink_budget: int = 48,
             cache: Optional[RunCache] = None) -> FuzzReport:
    """One bounded fuzz campaign; see the module docstring.

    Args:
        seed: campaign seed; with ``runs`` it determines everything.
        runs: how many specs to sample and run.
        max_events: per-run event budget (the deterministic timeout).
        jobs: >1 splits the runs over worker processes.
        shrink: delta-debug violating specs (first
            :data:`MAX_SHRINKS` only).
        shrink_budget: candidate runs allowed per shrink.
        cache: optional :class:`RunCache` (serial runs only; worker
            cells never touch disk).
    """
    if runs < 1:
        raise ValueError(f"runs must be >= 1, got {runs}")
    report = FuzzReport(seed=seed, runs=runs, max_events=max_events)
    if jobs > 1:
        report.rows = _pool_rows(seed, runs, max_events, jobs)
    else:
        report.rows = [run_row(index, seed, max_events, cache=cache)
                       for index in range(runs)]

    def cached_runner(spec: ScenarioSpec, run_seed: int,
                      budget: int) -> List[str]:
        key = run_key(spec.digest(), run_seed, budget)
        if cache is not None:
            hit = cache.get(key)
            if hit is not None:
                return list(hit["codes"])
        run = run_spec(spec, run_seed, max_events=budget)
        if cache is not None:
            cache.put(key, {
                "digest": run.digest, "codes": run.codes(),
                "clean": run.clean,
                "sessions": run.sessions_created,
                "events": run.events_run,
                "trace_sha256": run.trace_sha256(),
            })
        return run.codes()

    shrinks_done = 0
    for row in report.violating_rows():
        hard = _hard_codes(row)
        if not hard:
            continue
        spec = spec_for_run(row["index"], seed)
        # Replay from the JSON artifact alone — never from the live
        # spec object and never from the cache.
        replayed = run_spec(ScenarioSpec.from_json(spec.to_json()),
                            seed, max_events=max_events)
        if replayed.trace_sha256() != row["trace_sha256"]:
            report.replay_failures.append({
                "code": "SCN912",
                "index": row["index"],
                "digest": row["digest"],
                "expected_trace_sha256": row["trace_sha256"],
                "replayed_trace_sha256": replayed.trace_sha256(),
            })
            continue
        entry: Dict[str, Any] = {
            "index": row["index"],
            "codes": hard,
            "artifact": {"spec": spec.to_dict(), "seed": seed,
                         "max_events": max_events,
                         "digest": row["digest"],
                         "trace_sha256": row["trace_sha256"]},
            "shrunk": False,
        }
        if shrink and shrinks_done < MAX_SHRINKS:
            result = shrink_spec(spec, seed, frozenset(hard),
                                 max_events=max_events,
                                 budget=shrink_budget,
                                 runner=cached_runner)
            entry["shrunk"] = True
            entry["minimized"] = result.to_dict()
            shrinks_done += 1
        report.counterexamples.append(entry)
    return report
