"""Clean-run scenario tests, the CLI, and the zero-cost-when-off contract.

The mutation tests prove each checker *can* fire; these prove the real
protocol stack *doesn't* make them fire: the full §4 clash-protocol
simulation and the AIPR steady-state churn run under every sanitizer
with zero violations, as tier-1 tests.
"""

import json

import numpy as np
import pytest

from repro.core.address_space import MulticastAddressSpace
from repro.core.informed import InformedRandomAllocator
from repro.sanitize import (
    SCENARIO_NAMES,
    VIOLATION_CODES,
    SanitizerContext,
    Violation,
    render_json,
    render_text,
    run_scenario,
)
from repro.sanitize.cli import main as sanitize_main
from repro.sap.directory import SessionDirectory
from repro.sim.events import EventScheduler
from repro.sim.network import NetworkModel


@pytest.fixture(scope="module")
def scenario_results():
    """Run every registered scenario once per module."""
    return {name: run_scenario(name, seed=1998)
            for name in SCENARIO_NAMES}


class TestCleanScenarios:
    def test_kernel_scenario_clean(self, scenario_results):
        context = scenario_results["kernel"].context
        assert context.clean, context.render_text()
        # The run must have exercised the cache cross-check, and every
        # event it ran must have passed the SAN223 check.
        assert context.cache_sanitizer.entries_checked == 60
        assert context._scheduler.events_run == 1287
        assert context.scheduler_sanitizer.fires_checked == 1287

    def test_clash_protocol_scenario_clean(self, scenario_results):
        context = scenario_results["clash"].context
        assert context.clean, context.render_text()
        assert context.scope_sanitizer.deliveries_checked == 184
        assert context._scheduler.events_run == 351
        assert context.scheduler_sanitizer.fires_checked == 351

    def test_steady_state_scenario_clean(self, scenario_results):
        result = scenario_results["steady"]
        assert result.clean, result.context.render_text()

    def test_summaries_name_their_scenario(self, scenario_results):
        for name, result in scenario_results.items():
            assert result.name == name
            assert result.summary.startswith(f"{name}:")

    def test_unknown_scenario_raises(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            run_scenario("no-such-scenario")


class TestCli:
    def test_clean_run_exits_zero(self, capsys):
        assert sanitize_main(["kernel"]) == 0
        out = capsys.readouterr().out
        assert "sanitize[kernel]: clean (0 violations)" in out
        assert "1 scenario(s) clean" in out

    def test_json_format_matches_lint_schema(self, capsys):
        assert sanitize_main(["kernel", "--format", "json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data == {"count": 0, "findings": []}

    def test_unknown_scenario_exits_two(self, capsys):
        assert sanitize_main(["bogus"]) == 2
        assert "unknown scenario" in capsys.readouterr().err

    def test_list_scenarios(self, capsys):
        assert sanitize_main(["--list-scenarios"]) == 0
        out = capsys.readouterr().out
        for name in SCENARIO_NAMES:
            assert name in out


class TestReportModel:
    def test_every_code_has_a_distinct_rule(self):
        rules = list(VIOLATION_CODES.values())
        assert len(rules) == len(set(rules))

    def test_record_rejects_unregistered_pairs(self):
        context = SanitizerContext(scenario="test")
        with pytest.raises(ValueError, match="unregistered"):
            context.record("SAN999", "made-up", "nope")
        with pytest.raises(ValueError, match="unregistered"):
            context.record("SAN201", "scope-violation", "wrong rule")

    def test_render_text_breaks_down_by_rule(self):
        violations = [
            Violation("SAN221", "clock-backwards", "a", time=1.0),
            Violation("SAN221", "clock-backwards", "b", time=2.0),
            Violation("SAN211", "scope-violation", "c", time=3.0),
        ]
        text = render_text(violations, "demo")
        assert "t=1.0000: SAN221 [clock-backwards] a" in text
        assert ("sanitize[demo]: 3 violations "
                "(clock-backwards=2, scope-violation=1)") in text

    def test_render_json_uses_pseudo_paths(self):
        violations = [Violation("SAN211", "scope-violation", "leak",
                                time=4.5)]
        data = json.loads(render_json(violations, "demo"))
        assert data["count"] == 1
        finding = data["findings"][0]
        assert finding["path"] == "<sanitize:demo>"
        assert finding["code"] == "SAN211"
        assert finding["message"].startswith("t=4.5000: ")


def shadowed_methods(obj):
    """Instance attributes named after a method of ``obj``'s class:
    the wrappers a sanitizer installed on this one instance."""
    return sorted(name for name in vars(obj)
                  if callable(getattr(type(obj), name, None)))


def make_directory(scheduler, network, rng):
    return SessionDirectory(
        node=0, scheduler=scheduler, network=network,
        allocator=InformedRandomAllocator(64, np.random.default_rng(0)),
        address_space=MulticastAddressSpace.abstract(64),
        rng=rng,
    )


class TestZeroCostWhenOff:
    """Sanitizers off must leave the kernel objects untouched.

    A context attaches by wrapping methods on the instances it is
    given, so the structural assertion is that no wrapper or shadow
    attribute exists unless a context explicitly attached one, and
    that attaching one object leaves its twin plain.
    """

    def test_fresh_kernel_objects_have_no_monitor(self, chain_scope_map):
        context = SanitizerContext(scope_map=chain_scope_map,
                                   scenario="test")
        attached = context.attach_scheduler(EventScheduler())
        attached_net = context.attach_network(
            NetworkModel(attached, lambda source, ttl: []))
        assert shadowed_methods(attached_net) == ["hand_over", "send"]
        scheduler = EventScheduler()
        network = NetworkModel(scheduler, lambda source, ttl: [])
        for obj in (scheduler, scheduler.clock, network):
            assert shadowed_methods(obj) == []

    def test_fresh_directory_has_no_sanitizer(self, rng):
        context = SanitizerContext(scenario="test")
        scheduler = EventScheduler()
        network = NetworkModel(scheduler, lambda source, ttl: [])
        watched = context.watch_directory(
            make_directory(scheduler, network, rng))
        assert shadowed_methods(watched) == [
            "create_session", "delete_session", "retreat"]
        directory = make_directory(scheduler, network, rng)
        assert shadowed_methods(directory) == []
        assert shadowed_methods(directory.allocator) == []
        # No wrapper marker unless watch_allocator ran.
        assert not hasattr(directory.allocator, "_sanitize_watched")

    def test_unsanitized_harness_runs_are_byte_identical(self):
        # The determinism harness is the sensitive consumer: running
        # it with and without hooks *present but detached* must not
        # perturb the trace (monitors only observe, never steer).
        from repro.lint.determinism import run_scenario as run_det

        plain = run_det(seed=7)
        context = SanitizerContext(scenario="kernel")
        sanitized = run_det(seed=7, sanitizer=context)
        assert context.clean
        assert sanitized == plain
