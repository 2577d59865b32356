"""Event scheduler and clock tests."""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.sim.clock import SimClock
from repro.sim.events import EventScheduler


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance(self):
        clock = SimClock()
        clock.advance_to(3.5)
        assert clock.now == 3.5

    def test_cannot_go_backwards(self):
        clock = SimClock(2.0)
        with pytest.raises(ValueError):
            clock.advance_to(1.0)

    def test_advance_to_same_time_ok(self):
        clock = SimClock(2.0)
        clock.advance_to(2.0)
        assert clock.now == 2.0


class TestEventScheduler:
    def test_runs_in_time_order(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(3.0, lambda: fired.append("c"))
        sched.schedule(1.0, lambda: fired.append("a"))
        sched.schedule(2.0, lambda: fired.append("b"))
        sched.run()
        assert fired == ["a", "b", "c"]

    def test_ties_break_by_insertion_order(self):
        sched = EventScheduler()
        fired = []
        for tag in range(5):
            sched.schedule(1.0, lambda t=tag: fired.append(t))
        sched.run()
        assert fired == [0, 1, 2, 3, 4]

    def test_clock_advances_to_event_time(self):
        sched = EventScheduler()
        seen = []
        sched.schedule(2.5, lambda: seen.append(sched.now))
        sched.run()
        assert seen == [2.5]
        assert sched.now == 2.5

    def test_negative_delay_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            sched.schedule(-0.1, lambda: None)

    def test_schedule_at_in_past_rejected(self):
        sched = EventScheduler(start=5.0)
        with pytest.raises(ValueError):
            sched.schedule_at(4.0, lambda: None)

    def test_cancel_prevents_firing(self):
        sched = EventScheduler()
        fired = []
        handle = sched.schedule(1.0, lambda: fired.append(1))
        handle.cancel()
        sched.run()
        assert fired == []
        assert handle.cancelled

    def test_cancel_is_idempotent(self):
        sched = EventScheduler()
        handle = sched.schedule(1.0, lambda: None)
        handle.cancel()
        handle.cancel()
        assert not handle.pending

    def test_run_until_stops_before_later_events(self):
        sched = EventScheduler()
        fired = []
        sched.schedule(1.0, lambda: fired.append(1))
        sched.schedule(10.0, lambda: fired.append(10))
        sched.run(until=5.0)
        assert fired == [1]
        assert sched.now == 5.0
        sched.run()
        assert fired == [1, 10]

    def test_run_until_advances_clock_with_no_events(self):
        sched = EventScheduler()
        sched.run(until=7.0)
        assert sched.now == 7.0

    def test_events_can_schedule_events(self):
        sched = EventScheduler()
        fired = []

        def chain(depth):
            fired.append(sched.now)
            if depth:
                sched.schedule(1.0, lambda: chain(depth - 1))

        sched.schedule(1.0, lambda: chain(3))
        sched.run()
        assert fired == [1.0, 2.0, 3.0, 4.0]

    def test_max_events_bounds_execution(self):
        sched = EventScheduler()
        fired = []

        def forever():
            fired.append(sched.now)
            sched.schedule(1.0, forever)

        sched.schedule(0.0, forever)
        sched.run(max_events=10)
        assert len(fired) == 10

    def test_step_returns_false_when_empty(self):
        assert EventScheduler().step() is False

    def test_pending_count_excludes_cancelled(self):
        sched = EventScheduler()
        sched.schedule(1.0, lambda: None)
        handle = sched.schedule(2.0, lambda: None)
        handle.cancel()
        assert sched.pending_count == 1

    def test_events_run_counter(self):
        sched = EventScheduler()
        for __ in range(4):
            sched.schedule(1.0, lambda: None)
        sched.run()
        assert sched.events_run == 4

    @given(st.lists(st.floats(min_value=0.0, max_value=1e6,
                              allow_nan=False), min_size=1, max_size=50))
    def test_property_fires_in_sorted_order(self, delays):
        sched = EventScheduler()
        fired = []
        for delay in delays:
            sched.schedule(delay, lambda d=delay: fired.append(d))
        sched.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)


class TestTieBreakWithCancellation:
    """Insertion-order tie-breaking must survive interleaved cancels:
    cancelled stubs stay in the heap, and skipping them must not
    perturb the order of the survivors."""

    def test_cancelled_events_skipped_order_preserved(self):
        sched = EventScheduler()
        fired = []
        handles = [sched.schedule(1.0, lambda t=tag: fired.append(t))
                   for tag in range(6)]
        for tag in (0, 2, 4):
            handles[tag].cancel()
        sched.run()
        assert fired == [1, 3, 5]

    def test_cancel_same_time_event_from_earlier_event(self):
        sched = EventScheduler()
        fired = []
        handles = {}

        def first():
            fired.append("first")
            handles["victim"].cancel()

        sched.schedule(1.0, first)
        handles["victim"] = sched.schedule(
            1.0, lambda: fired.append("victim")
        )
        sched.schedule(1.0, lambda: fired.append("last"))
        sched.run()
        assert fired == ["first", "last"]

    def test_reschedule_after_cancel_goes_to_back_of_tie(self):
        sched = EventScheduler()
        fired = []
        victim = sched.schedule(1.0, lambda: fired.append("old"))
        sched.schedule(1.0, lambda: fired.append("a"))
        victim.cancel()
        sched.schedule(1.0, lambda: fired.append("new"))
        sched.run()
        assert fired == ["a", "new"]

    def test_interleaved_cancel_and_schedule_at_same_time(self):
        sched = EventScheduler()
        fired = []
        keep = []
        for round_no in range(4):
            doomed = sched.schedule(
                2.0, lambda r=round_no: fired.append(("doomed", r))
            )
            keep.append(sched.schedule(
                2.0, lambda r=round_no: fired.append(("kept", r))
            ))
            doomed.cancel()
        sched.run()
        assert fired == [("kept", r) for r in range(4)]
        assert all(not h.pending for h in keep)

    def test_pending_count_tracks_cancel_interleaving(self):
        sched = EventScheduler()
        handles = [sched.schedule(1.0, lambda: None) for _ in range(5)]
        handles[1].cancel()
        handles[3].cancel()
        assert sched.pending_count == 3


# --------------------------------------------------------------------
# The kernel against a reference scheduler.  The reference keeps every
# event in a plain list and finds the next one by sorting, so its order
# is obviously (when, seq) with cancelled and fired events skipped.
# Random programs drive both the same way and must agree after every
# slice of work.
# --------------------------------------------------------------------

class ReferenceHandle:
    def __init__(self, when, seq, callback):
        self.when = when
        self.seq = seq
        self.callback = callback
        self.cancelled = False

    def cancel(self):
        self.cancelled = True
        self.callback = None

    @property
    def pending(self):
        return not self.cancelled and self.callback is not None


class ReferenceScheduler:
    def __init__(self):
        self.now = 0.0
        self.events = []
        self.events_run = 0

    @property
    def events_scheduled(self):
        return len(self.events)

    def schedule(self, delay, callback):
        return self.schedule_at(self.now + delay, callback)

    def schedule_at(self, when, callback):
        handle = ReferenceHandle(when, len(self.events), callback)
        self.events.append(handle)
        return handle

    def pending_handles(self):
        return sorted((h for h in self.events if h.pending),
                      key=lambda h: (h.when, h.seq))

    def step(self):
        live = self.pending_handles()
        if not live:
            return False
        handle = live[0]
        self.now = handle.when
        callback, handle.callback = handle.callback, None
        callback()
        self.events_run += 1
        return True

    def run(self, until=None, max_events=None):
        executed = 0
        while self.pending_handles():
            if max_events is not None and executed >= max_events:
                return
            if until is not None and self.pending_handles()[0].when > until:
                self.now = until
                return
            self.step()
            executed += 1
        if until is not None and until > self.now:
            self.now = until


class Driver:
    """Runs one program on one scheduler and records what fired."""

    def __init__(self, scheduler):
        self.scheduler = scheduler
        self.handles = []
        self.fired = []

    def add(self, how, time, action):
        label = len(self.handles)

        def callback():
            self.fired.append((label, self.scheduler.now))
            self.act(action)

        if how == "schedule":
            handle = self.scheduler.schedule(time, callback)
        else:
            handle = self.scheduler.schedule_at(self.scheduler.now + time,
                                                callback)
        self.handles.append(handle)

    def act(self, action):
        kind, value = action
        if kind in ("schedule", "schedule_at"):
            self.add(kind, value, ("record", 0))
        elif kind == "cancel" and self.handles:
            self.handles[value % len(self.handles)].cancel()

    def apply(self, op):
        kind = op[0]
        if kind in ("schedule", "schedule_at"):
            self.add(kind, op[1], op[2])
        elif kind == "cancel":
            self.act(op)
        elif kind == "run_until":
            self.scheduler.run(until=self.scheduler.now + op[1])
        elif kind == "run_max":
            self.scheduler.run(max_events=op[1])
        elif kind == "step":
            return self.scheduler.step()
        return None

    def state(self):
        label = {id(handle): index
                 for index, handle in enumerate(self.handles)}
        scheduler = self.scheduler
        return (list(self.fired), scheduler.now, scheduler.events_run,
                scheduler.events_scheduled,
                [(h.when, h.seq, label[id(h)])
                 for h in scheduler.pending_handles()])


# Halves keep every sum exact, so equal times really tie; a zero delay
# schedules at ``now``.
TIMES = st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0])
HOW = st.sampled_from(["schedule", "schedule_at"])
CANCEL = st.tuples(st.just("cancel"), st.integers(0, 50))
# What a callback does when it fires, besides recording itself.
ACTIONS = st.one_of(st.tuples(st.just("record"), st.just(0)),
                    st.tuples(HOW, TIMES), CANCEL)
SCHEDULE = st.tuples(HOW, TIMES, ACTIONS)
# Schedules and cancels are drawn three and two times as often as each
# kind of slice, so slices usually find several events and tombstones
# pending.
OPS = st.one_of(
    SCHEDULE, SCHEDULE, SCHEDULE, CANCEL, CANCEL,
    st.tuples(st.just("run_until"), TIMES),
    st.tuples(st.just("run_max"), st.integers(0, 4)),
    st.tuples(st.just("step")),
)


class TestAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(OPS, max_size=40))
    # A tombstone at the head must not let run(until=...) fire a later
    # event past ``until``.
    @example([("schedule", 0.5, ("record", 0)),
              ("schedule", 3.0, ("record", 0)),
              ("cancel", 0), ("run_until", 1.0)])
    # run(max_events=n) fires n events, no fewer.
    @example([("schedule", 0.5, ("record", 0)),
              ("schedule_at", 0.5, ("schedule", 0.0)),
              ("schedule", 1.0, ("cancel", 0)),
              ("run_max", 3)])
    def test_matches_sorted_list_reference(self, program):
        kernel = Driver(EventScheduler())
        reference = Driver(ReferenceScheduler())
        for op in program + [("run_max", 1000)]:
            assert kernel.apply(op) == reference.apply(op)
            assert kernel.state() == reference.state()
            assert kernel.scheduler.pending_count == \
                len(reference.scheduler.pending_handles())
