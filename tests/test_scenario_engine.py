"""Engine determinism contract: a run is pure in ``(spec, seed)``."""

import json

import pytest

from repro.scenario.engine import run_spec
from repro.scenario.spec import (
    ArrivalSpec,
    PersonaAssignment,
    ScenarioSpec,
    TopologySpec,
)

SEED = 0x19980902

ADVERSARIAL = ScenarioSpec(
    name="engine-adversarial",
    topology=TopologySpec(partition_storms=1),
    personas=(PersonaAssignment(1, "deaf-after-claim"),),
    space_size=8,
)


class TestDeterminism:
    def test_same_spec_same_seed_same_bytes(self):
        first = run_spec(ADVERSARIAL, SEED, max_events=40_000)
        second = run_spec(ADVERSARIAL, SEED, max_events=40_000)
        assert first.trace == second.trace
        assert first.codes() == second.codes()
        assert first.events_run == second.events_run

    def test_artifact_alone_replays_the_trace(self):
        run = run_spec(ADVERSARIAL, SEED, max_events=40_000)
        artifact = json.loads(json.dumps(run.artifact()))
        replayed = run_spec(
            ScenarioSpec.from_dict(artifact["spec"]),
            artifact["seed"],
            max_events=artifact["max_events"],
        )
        assert replayed.trace_sha256() == artifact["trace_sha256"]

    def test_different_seed_different_trace(self):
        first = run_spec(ADVERSARIAL, SEED, max_events=40_000)
        second = run_spec(ADVERSARIAL, SEED + 1, max_events=40_000)
        assert first.trace != second.trace


class TestBudget:
    def test_event_budget_bounds_the_run(self):
        run = run_spec(ScenarioSpec(name="budget"), SEED,
                       max_events=500)
        assert run.events_run <= 500
        assert not run.horizon_reached
        assert "SCN911" in run.codes()

    def test_advisory_truncation_does_not_fail_the_run(self):
        run = run_spec(ScenarioSpec(name="budget"), SEED,
                       max_events=500)
        assert run.clean
        assert run.hard_violations == []

    def test_budget_is_recorded_on_the_run(self):
        run = run_spec(ScenarioSpec(name="budget"), SEED,
                       max_events=500)
        assert run.max_events == 500
        assert run.artifact()["max_events"] == 500


class TestTraceShape:
    def test_trace_names_every_site_and_the_clash_count(self):
        spec = ScenarioSpec(name="shape")
        run = run_spec(spec, SEED, max_events=40_000)
        lines = run.trace.splitlines()
        assert lines[0].startswith(
            f"# scenario shape kind=synthetic digest={spec.digest()}")
        sites = [line for line in lines if line.startswith("site ")]
        assert len(sites) == spec.topology.num_sites
        assert any(line.startswith("clash-pairs=") for line in lines)
        assert any(line.startswith("net: ") for line in lines)

    def test_violations_are_rendered_into_the_trace(self):
        run = run_spec(ADVERSARIAL, SEED, max_events=40_000)
        assert run.codes()  # the adversarial spec violates
        for violation in run.violations:
            assert violation.format() in run.trace


class TestWorkloadShapes:
    @pytest.mark.parametrize("process", ["poisson", "diurnal",
                                         "flash-crowd"])
    def test_every_arrival_process_runs(self, process):
        spec = ScenarioSpec(
            name=f"arr-{process}",
            arrival=ArrivalSpec(process=process),
        )
        run = run_spec(spec, SEED, max_events=40_000)
        assert run.sessions_created > 0

    @pytest.mark.parametrize("shape", ["uniform", "hotspot",
                                       "multifractal"])
    def test_every_demand_shape_runs(self, shape):
        from repro.scenario.spec import DemandSpec

        spec = ScenarioSpec(name=f"dem-{shape}",
                            demand=DemandSpec(shape=shape))
        run = run_spec(spec, SEED, max_events=40_000)
        assert run.sessions_created > 0
