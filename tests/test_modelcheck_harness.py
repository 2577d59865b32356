"""ProtocolHarness: explorable worlds, replay, snapshot/restore."""

import pytest

from repro.modelcheck.harness import (
    DELIVER,
    MUTATIONS,
    ControlledScheduler,
    ProtocolHarness,
    Snapshot,
    _callback_name,
)
from repro.modelcheck.scenarios import get_scenario, scenario_names
from repro.sanitize import SanitizerContext


def _run_prefix(harness, steps):
    """Execute the first enabled action ``steps`` times."""
    for _ in range(steps):
        actions = harness.enabled_actions()
        assert actions, "world quiesced before the prefix completed"
        harness.execute(actions[0])
    return harness


class TestConstruction:
    def test_smoke_setup_is_clean_and_live(self):
        harness = ProtocolHarness(get_scenario("smoke"))
        assert len(harness.directories) == 2
        assert harness.violations == []
        assert harness.losses_used == 0
        # The newcomer's announcement is still in flight.
        assert not harness.quiescent()
        assert harness.enabled_actions()

    def test_every_scenario_constructs_clean(self):
        for name in scenario_names():
            harness = ProtocolHarness(get_scenario(name))
            assert harness.violations == [], name

    def test_unknown_mutation_rejected(self):
        with pytest.raises(ValueError, match="unknown mutation"):
            ProtocolHarness(get_scenario("smoke"), mutation="nope")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ValueError, match="unknown scenario"):
            get_scenario("definitely-not-a-scenario")

    def test_mutations_registry(self):
        assert MUTATIONS == ("ghost-resurrection", "defend-off-by-one")


class TestDeterministicReplay:
    def test_same_trace_same_fingerprint(self):
        scenario = get_scenario("smoke")
        first = _run_prefix(ProtocolHarness(scenario), 4)
        second = ProtocolHarness(scenario)
        for action in first.trace:
            second.execute(action)
        assert first.fingerprint() == second.fingerprint()

    def test_enabled_actions_are_stable(self):
        harness = ProtocolHarness(get_scenario("smoke"))
        assert harness.enabled_actions() == harness.enabled_actions()

    def test_snapshot_restore_round_trip(self):
        scenario = get_scenario("smoke")
        harness = _run_prefix(ProtocolHarness(scenario), 3)
        snapshot = harness.snapshot()
        assert isinstance(snapshot, Snapshot)
        restored = ProtocolHarness.restore(scenario, snapshot)
        assert tuple(restored.trace) == tuple(harness.trace)
        assert restored.fingerprint() == snapshot.fingerprint

    def test_restore_detects_divergence(self):
        scenario = get_scenario("smoke")
        harness = _run_prefix(ProtocolHarness(scenario), 2)
        forged = Snapshot(trace=tuple(harness.trace),
                          fingerprint="not-the-real-fingerprint")
        with pytest.raises(RuntimeError, match="diverge"):
            ProtocolHarness.restore(scenario, forged)

    def test_execute_records_labels(self):
        harness = _run_prefix(ProtocolHarness(get_scenario("smoke")), 3)
        assert len(harness.trace) == 3
        assert len(harness.trace_labels) == 3
        assert all(isinstance(label, str) and label
                   for label in harness.trace_labels)


class TestExplorationSurface:
    def test_loss_budget_limits_drops(self):
        harness = ProtocolHarness(get_scenario("smoke"))
        drops = [a for a in harness.enabled_actions()
                 if a[0] == "drop"]
        assert drops, "a live message should be droppable"
        harness.execute(drops[0])
        assert harness.losses_used == 1
        # Budget is 1: no further drops may be offered, ever.
        assert not any(a[0] == "drop"
                       for a in harness.enabled_actions())

    def test_first_fit_exhaustion_forces(self):
        harness = ProtocolHarness(get_scenario("smoke"))
        allocator = harness.directories[0].allocator
        harness.create(0, "second")
        assert allocator.forced_allocations == 0
        harness.create(0, "third")  # space of 2 is now exhausted
        assert allocator.forced_allocations == 1


class TestControlledScheduler:
    def test_fired_handle_leaves_the_heap(self):
        """A handle fired out of band is gone from the queue, so
        ``run`` neither reads its time nor steps past ``until``."""
        scheduler = ControlledScheduler()
        fired = []
        first = scheduler.schedule(1.0, lambda: fired.append(1.0))
        keep = scheduler.schedule(5.0, lambda: fired.append(5.0))
        scheduler.fire(first)
        assert fired == [1.0]
        assert scheduler.pending_count == 1
        scheduler.run(until=2.0)
        assert fired == [1.0]
        assert scheduler.now == 2.0
        assert scheduler.pending_count == 1
        assert scheduler.pending_handles() == [keep]
        scheduler.run()
        assert fired == [1.0, 5.0]
        assert scheduler.events_run == 2


class TestTimerNames:
    """The fingerprint names each pending timer by its callback's
    qualname, so the sanitizer's per-event wrapper must not rename
    any: the state counts would move."""

    @staticmethod
    def _ghost_with_defence_pending():
        harness = ProtocolHarness(get_scenario("ghost"))
        # The newcomer's announcement reaches the third party, node 1,
        # which schedules a proxy defence of the older session.
        seq = next(seq for seq, message in harness.network.inflight.items()
                   if message.receiver == 1)
        harness.execute((DELIVER, seq))
        return harness

    def test_names_match_an_unsanitized_world(self, monkeypatch):
        sanitized = self._ghost_with_defence_pending()
        for name in ("attach_scheduler", "attach_network",
                     "watch_directory"):
            monkeypatch.setattr(SanitizerContext, name,
                                lambda self, target: target)
        plain = self._ghost_with_defence_pending()

        def names(harness):
            return [(handle.when, _callback_name(handle))
                    for handle in harness.scheduler.pending_handles()]

        assert all(hasattr(handle.callback, "__wrapped__")
                   for handle in sanitized.scheduler.pending_handles())
        assert not any(hasattr(handle.callback, "__wrapped__")
                       for handle in plain.scheduler.pending_handles())
        assert names(sanitized) == names(plain)
        assert {name for __, name in names(plain)} == {
            "Announcer._fire",
            "ClashHandler._schedule_defence.<locals>.<lambda>",
            "SessionDirectory.create_session.<locals>.<lambda>",
        }
        assert sanitized.fingerprint() == plain.fingerprint()
