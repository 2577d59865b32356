"""Fuzz campaign contract: deterministic, shardable, cache-sound."""

import json

import pytest

from repro.scenario.cache import RunCache
from repro.scenario.fuzz import (
    fuzz_stream_key,
    run_fuzz,
    run_row,
    spec_for_run,
)

SEED = 0x19980902
BUDGET = 40_000
RUNS = 3


def report_bytes(report):
    return json.dumps(report.to_dict(), sort_keys=True)


class TestDeterminism:
    def test_two_campaigns_are_byte_identical(self):
        first = run_fuzz(SEED, runs=RUNS, max_events=BUDGET,
                         shrink=False)
        second = run_fuzz(SEED, runs=RUNS, max_events=BUDGET,
                          shrink=False)
        assert report_bytes(first) == report_bytes(second)

    def test_rows_are_keyed_by_global_index(self):
        report = run_fuzz(SEED, runs=RUNS, max_events=BUDGET,
                          shrink=False)
        assert [row["index"] for row in report.rows] == list(range(RUNS))
        for row in report.rows:
            assert row["digest"] == spec_for_run(row["index"],
                                                 SEED).digest()


class TestParallelRuns:
    def test_worker_count_cannot_change_the_report(self):
        inline = run_fuzz(SEED, runs=RUNS, max_events=BUDGET,
                          shrink=False)
        parallel = run_fuzz(SEED, runs=RUNS, max_events=BUDGET,
                           jobs=2, shrink=False)
        assert report_bytes(inline) == report_bytes(parallel)


class TestRunCache:
    def test_warm_cache_reproduces_the_cold_report(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = RunCache(path)
        cold = run_fuzz(SEED, runs=RUNS, max_events=BUDGET,
                        shrink=False, cache=cache)
        assert cache.save()

        warm_cache = RunCache(path)
        warm = run_fuzz(SEED, runs=RUNS, max_events=BUDGET,
                        shrink=False, cache=warm_cache)
        assert report_bytes(cold) == report_bytes(warm)
        assert warm_cache.hits >= RUNS

    def test_signature_mismatch_discards_entries(self, tmp_path):
        path = str(tmp_path / "cache.json")
        cache = RunCache(path)
        cache.put("k", {"codes": []})
        cache.save()
        with open(path, "r+", encoding="utf-8") as handle:
            payload = json.load(handle)
            payload["signature"] = "stale"
            handle.seek(0)
            json.dump(payload, handle)
            handle.truncate()
        assert RunCache(path).entries == {}


class TestStreamKeys:
    def test_fuzz_keys_live_in_the_scenario_namespace(self):
        assert fuzz_stream_key(7) == "scenario/fuzz/run-7"

    def test_row_digest_is_stable_across_processes(self):
        # spec_for_run is pure in (index, seed): the digest a worker
        # computes equals the parent's.
        row = run_row(1, SEED, BUDGET)
        assert row["digest"] == spec_for_run(1, SEED).digest()


class TestValidation:
    def test_zero_runs_is_a_usage_error(self):
        with pytest.raises(ValueError, match="runs"):
            run_fuzz(SEED, runs=0)


class TestCounterexamples:
    def test_artifacts_carry_everything_a_replay_needs(self):
        report = run_fuzz(SEED, runs=1, max_events=BUDGET,
                          shrink=False)
        assert report.counterexamples  # run 0 violates at this seed
        artifact = report.counterexamples[0]["artifact"]
        for field in ("spec", "seed", "max_events", "digest",
                      "trace_sha256"):
            assert field in artifact
