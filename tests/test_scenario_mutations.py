"""Seeded-defect tests: every SCN9xx rule must catch its scenario.

Same shape as the modelcheck mutation suite: for each rule a
*violating* spec that fires it and a minimally-different *clean twin*
that does not, all at one pinned seed.  This is the evidence the
monitor detects what it claims to detect — not merely that quiet
scenarios happen to stay quiet.

The suite closes with the shrinker proof: a violating spec drawn from
the fuzz generator must delta-debug down to at most three active
fields while still reproducing its violation.
"""

import dataclasses

from repro.scenario.cache import RunCache, run_key
from repro.scenario.engine import run_spec
from repro.scenario.fuzz import run_fuzz, run_row, spec_for_run
from repro.scenario.shrink import shrink_spec
from repro.scenario.spec import (
    ArrivalSpec,
    PersonaAssignment,
    ScenarioSpec,
    TopologySpec,
    active_fields,
)

SEED = 0x19980902
BUDGET = 40_000


def codes_of(spec, max_events=BUDGET):
    return set(run_spec(spec, SEED, max_events=max_events).codes())


class TestScn901PartitionHealDoubleClaim:
    VIOLATING = ScenarioSpec(
        name="scn901",
        topology=TopologySpec(partition_storms=2),
        space_size=8,
    )

    def test_partition_storms_leave_a_double_claim(self):
        assert "SCN901" in codes_of(self.VIOLATING)

    def test_twin_without_storms_is_silent(self):
        twin = dataclasses.replace(
            self.VIOLATING,
            topology=TopologySpec(partition_storms=0),
        )
        assert "SCN901" not in codes_of(twin)


class TestScn902FlashCrowdStarvation:
    VIOLATING = ScenarioSpec(
        name="scn902",
        arrival=ArrivalSpec(process="flash-crowd", rate=0.08),
        personas=(PersonaAssignment(0, "always-defends"),),
        space_size=8,
        starvation_moves=24,
    )

    def test_flash_crowd_starves_an_honest_site(self):
        assert "SCN902" in codes_of(self.VIOLATING)

    def test_twin_with_poisson_arrivals_is_silent(self):
        twin = dataclasses.replace(
            self.VIOLATING,
            arrival=ArrivalSpec(process="poisson", rate=0.08),
        )
        assert "SCN902" not in codes_of(twin)


class TestScn903TtlLiarAcceptance:
    VIOLATING = ScenarioSpec(
        name="scn903",
        personas=(PersonaAssignment(0, "ttl-liar"),),
    )

    def test_honest_caches_accept_the_exaggerated_scope(self):
        assert "SCN903" in codes_of(self.VIOLATING)

    def test_twin_without_the_liar_is_silent(self):
        twin = dataclasses.replace(self.VIOLATING, personas=())
        assert "SCN903" not in codes_of(twin)


class TestScn904MisbehaverResidualClash:
    VIOLATING = ScenarioSpec(
        name="scn904",
        personas=(PersonaAssignment(1, "deaf-after-claim"),),
        space_size=6,
    )

    def test_deaf_claimant_leaves_a_residual_clash(self):
        assert "SCN904" in codes_of(self.VIOLATING)

    def test_twin_without_the_persona_is_silent(self):
        twin = dataclasses.replace(self.VIOLATING, personas=())
        assert "SCN904" not in codes_of(twin)


class TestScn905ChurnedGhostEntry:
    VIOLATING = ScenarioSpec(
        name="scn905",
        topology=TopologySpec(churn_events=4, churn_downtime=150.0),
        cache_timeout=90.0,
    )

    def test_churned_claims_outlive_the_cache_timeout(self):
        assert "SCN905" in codes_of(self.VIOLATING)

    def test_twin_with_ample_timeout_is_silent(self):
        twin = dataclasses.replace(self.VIOLATING,
                                   cache_timeout=3600.0)
        assert "SCN905" not in codes_of(twin)


class TestScn911EventBudget:
    def test_tiny_budget_truncates_with_the_advisory(self):
        run = run_spec(ScenarioSpec(name="scn911"), SEED,
                       max_events=300)
        assert "SCN911" in run.codes()
        assert not run.horizon_reached
        # Advisory: a truncated-but-quiet run still counts as clean.
        assert run.clean

    def test_ample_budget_reaches_the_horizon(self):
        run = run_spec(ScenarioSpec(name="scn911"), SEED,
                       max_events=BUDGET)
        assert "SCN911" not in run.codes()
        assert run.horizon_reached


class TestScn912ReplayMismatch:
    def _poisoned_cache(self, tmp_path):
        """A cache whose run-0 row lies about the trace hash."""
        row = run_row(0, SEED, BUDGET)
        assert not row["clean"]  # run 0 violates at this seed
        cache = RunCache(str(tmp_path / "cache.json"))
        poisoned = dict(row)
        poisoned.pop("index")
        poisoned["trace_sha256"] = "0" * 64
        cache.put(run_key(row["digest"], SEED, BUDGET), poisoned)
        return cache

    def test_poisoned_cache_row_fails_replay(self, tmp_path):
        report = run_fuzz(SEED, runs=1, max_events=BUDGET,
                          shrink=False,
                          cache=self._poisoned_cache(tmp_path))
        assert not report.machinery_ok
        assert report.replay_failures[0]["code"] == "SCN912"
        assert report.counterexamples == []

    def test_honest_cache_replays_clean(self, tmp_path):
        cache = RunCache(str(tmp_path / "cache.json"))
        report = run_fuzz(SEED, runs=1, max_events=BUDGET,
                          shrink=False, cache=cache)
        assert report.machinery_ok
        assert report.counterexamples


class TestShrinker:
    def test_seeded_violation_minimizes_to_three_fields_or_fewer(self):
        spec = spec_for_run(0, SEED)
        row = run_row(0, SEED, BUDGET)
        hard = frozenset(c for c in row["codes"] if c != "SCN911")
        assert hard  # the campaign's first run violates at this seed
        assert len(active_fields(spec)) > 3  # sampled specs are busy

        result = shrink_spec(spec, SEED, hard, max_events=BUDGET,
                             budget=48)
        assert len(result.active) <= 3
        assert result.codes  # still reproduces a target code
        # The minimized spec reproduces from its JSON round trip too.
        again = ScenarioSpec.from_json(result.spec.to_json())
        assert hard & set(
            run_spec(again, SEED, max_events=BUDGET).codes()
        )
