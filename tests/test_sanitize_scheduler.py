"""SchedulerSanitizer: mutation tests per kernel invariant.

Each test breaks one invariant on purpose — through the kernel's own
code paths, not by calling the checker directly — and asserts the
sanitizer reports exactly the right violation code.  The kernel
*rejects* most of these misuses with exceptions; the sanitizer's
wrappers check before they call the kernel, so a sanitized run records
the violation even when the operation is refused.
"""

import heapq

import pytest

from repro.modelcheck.harness import (
    FIRE,
    ControlledScheduler,
    ProtocolHarness,
)
from repro.modelcheck.scenarios import get_scenario
from repro.sanitize import SanitizerContext
from repro.sim.events import EventScheduler


def make_sanitized_scheduler():
    context = SanitizerContext(scenario="test")
    scheduler = context.attach_scheduler(EventScheduler())
    return context, scheduler


def codes(context):
    return [violation.code for violation in context.violations]


def shadowed_methods(obj):
    """Instance attributes named after a method of ``obj``'s class:
    the wrappers a sanitizer installed on this one instance."""
    return sorted(name for name in vars(obj)
                  if callable(getattr(type(obj), name, None)))


class TestPastSchedule:
    def test_negative_delay_records_san222(self):
        context, scheduler = make_sanitized_scheduler()
        handle = scheduler.schedule(5.0, lambda: None)
        scheduler.run()
        assert handle is not None
        with pytest.raises(ValueError):
            scheduler.schedule(-1.0, lambda: None)
        assert codes(context) == ["SAN222"]
        assert context.violations[0].rule == "past-schedule"

    def test_schedule_at_in_the_past_records_san222(self):
        context, scheduler = make_sanitized_scheduler()
        h = scheduler.schedule(10.0, lambda: None)
        scheduler.run()
        assert not h.pending
        with pytest.raises(ValueError):
            scheduler.schedule_at(3.0, lambda: None)
        assert codes(context) == ["SAN222"]

    def test_violation_carries_simulated_time(self):
        context, scheduler = make_sanitized_scheduler()
        h = scheduler.schedule(10.0, lambda: None)
        scheduler.run()
        assert not h.pending
        with pytest.raises(ValueError):
            scheduler.schedule_at(3.0, lambda: None)
        assert context.violations[0].time == 10.0


class TestClockBackwards:
    def test_backwards_advance_records_san221(self):
        context, scheduler = make_sanitized_scheduler()
        scheduler.clock.advance_to(5.0)
        with pytest.raises(ValueError):
            scheduler.clock.advance_to(1.0)
        assert codes(context) == ["SAN221"]
        assert context.violations[0].rule == "clock-backwards"

    def test_forward_advance_clean(self):
        context, scheduler = make_sanitized_scheduler()
        scheduler.clock.advance_to(5.0)
        scheduler.clock.advance_to(5.0)  # equal time is legal
        scheduler.clock.advance_to(9.0)
        assert context.clean


class LeakyScheduler(EventScheduler):
    """A kernel with the tombstone check removed — the bug under test.

    The real ``step`` skips handles whose ``cancelled`` flag is set;
    this one only honours the nulled-callback half of cancellation, so
    a handle whose flag was raised without clearing the callback fires
    anyway.  SAN223 must catch exactly that.
    """

    def step(self) -> bool:
        while self._heap:
            when, __, handle = heapq.heappop(self._heap)
            if handle.callback is None:
                continue
            self.clock.advance_to(when)
            callback, handle.callback = handle.callback, None
            callback()
            self._events_run += 1
            return True
        return False


class LeakyControlledScheduler(ControlledScheduler):
    """The model checker's scheduler with ``fire``'s pending check
    removed: the explorer's firing path, carrying the same bug."""

    def fire(self, handle):
        self.clock.advance_to(max(self.now, handle.when))
        callback, handle.callback = handle.callback, None
        callback()
        self._events_run += 1


class TestCancelledHandleFired:
    def test_buggy_kernel_firing_tombstone_records_san223(self):
        context = SanitizerContext(scenario="test")
        scheduler = context.attach_scheduler(LeakyScheduler())
        fired = []
        handle = scheduler.schedule(1.0, lambda: fired.append(True))
        handle.cancelled = True  # flag only; the buggy kernel ignores it
        while scheduler.step():
            pass
        assert fired  # the bug is real: the cancelled event ran
        assert codes(context) == ["SAN223"]
        assert context.violations[0].rule == "cancelled-handle-fired"

    def test_model_checker_firing_tombstone_records_san223(self):
        context = SanitizerContext(scenario="test")
        scheduler = context.attach_scheduler(LeakyControlledScheduler())
        fired = []
        handle = scheduler.schedule(1.0, lambda: fired.append(True))
        handle.cancelled = True  # flag only; the buggy fire ignores it
        scheduler.fire(handle)
        assert fired
        assert codes(context) == ["SAN223"]

    def test_every_explorer_fire_is_checked(self):
        harness = ProtocolHarness(get_scenario("smoke"))
        for __ in range(3):
            handle = harness.scheduler.pending_handles()[0]
            harness.execute((FIRE, handle.seq))
        assert harness.scheduler.events_run == 3
        assert harness.context.scheduler_sanitizer.fires_checked == 3

    def test_proper_cancellation_on_real_kernel_clean(self):
        context, scheduler = make_sanitized_scheduler()
        fired = []
        handle = scheduler.schedule(1.0, lambda: fired.append(True))
        handle.cancel()
        scheduler.run()
        assert not fired
        assert context.clean


class TestReentrantRun:
    def test_run_inside_callback_records_san224(self):
        context, scheduler = make_sanitized_scheduler()
        h = scheduler.schedule(1.0, lambda: scheduler.run())
        scheduler.run()
        assert not h.pending
        assert codes(context) == ["SAN224"]
        assert context.violations[0].rule == "reentrant-run"

    def test_sequential_runs_clean(self):
        context, scheduler = make_sanitized_scheduler()
        h1 = scheduler.schedule(1.0, lambda: None)
        scheduler.run()
        h2 = scheduler.schedule(1.0, lambda: None)
        scheduler.run()
        assert not h1.pending and not h2.pending
        assert context.clean


class TestCleanKernelRun:
    def test_ordinary_workload_records_nothing(self):
        context, scheduler = make_sanitized_scheduler()
        order = []
        handles = [
            scheduler.schedule(delay, lambda d=delay: order.append(d))
            for delay in (3.0, 1.0, 2.0)
        ]
        handles[2].cancel()
        scheduler.run()
        assert order == [1.0, 3.0]
        assert context.scheduler_sanitizer.fires_checked == 2
        assert context.clean
        assert context.render_text().splitlines()[0] == (
            "sanitize[test]: clean (0 violations)"
        )

    def test_unmonitored_scheduler_has_no_monitor(self):
        # Attaching wraps methods on the one instance it is given:
        # a second scheduler and its clock stay plain.
        __, attached = make_sanitized_scheduler()
        plain = EventScheduler()
        assert shadowed_methods(attached) == ["run", "schedule",
                                              "schedule_at"]
        assert shadowed_methods(attached.clock) == ["advance_to"]
        assert shadowed_methods(plain) == []
        assert shadowed_methods(plain.clock) == []
