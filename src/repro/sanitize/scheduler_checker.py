"""SchedulerSanitizer — kernel invariants of the event machinery.

:meth:`SchedulerSanitizer.attach` wraps the methods of one
:class:`~repro.sim.events.EventScheduler` and its
:class:`~repro.sim.clock.SimClock` on those instances.  The kernel
already *rejects* most of these misuses with exceptions; each wrapper
checks before it calls the kernel method, so a sanitized run records
the violation even when the kernel refuses the operation — exactly
like ASan reporting a bad access the MMU would also have trapped.

Invariants:

* **SAN221 clock-backwards** — the clock was asked to move to an
  earlier time.  Event timestamps must be non-decreasing or causality
  (and every trace comparison) breaks.
* **SAN222 past-schedule** — a callback was scheduled before the
  current simulated time, usually a negative-delay arithmetic slip.
* **SAN223 cancelled-handle-fired** — a cancelled
  :class:`~repro.sim.events.EventHandle` executed anyway; cancellation
  is the only teardown mechanism components have, so this is the
  simulation analogue of use-after-free.
* **SAN224 reentrant-run** — ``run()`` was entered from inside an
  event callback; the inner loop would drain events the outer loop
  believes are still pending.
"""

from __future__ import annotations


class SchedulerSanitizer:
    """Checks one scheduler and its clock through method wrappers."""

    def __init__(self, context) -> None:
        self._context = context
        self._run_depth = 0
        #: Callbacks that ran through the SAN223 check.
        self.fires_checked = 0

    def attach(self, scheduler) -> None:
        """Wrap ``scheduler``'s and its clock's methods with the checks."""
        record = self._context.record
        clock = scheduler.clock
        advance_to = clock.advance_to
        schedule = scheduler.schedule
        schedule_at = scheduler.schedule_at
        run = scheduler.run

        def checked_advance_to(when):
            if when < clock.now:
                record("SAN221", "clock-backwards",
                       f"clock asked to move backwards from "
                       f"t={clock.now} to t={when}",
                       time=clock.now)
            advance_to(when)

        def past_schedule(when):
            record("SAN222", "past-schedule",
                   f"callback scheduled at t={when} before current "
                   f"time t={scheduler.now}",
                   time=scheduler.now)

        def checked_schedule(delay, callback):
            if delay < 0:
                past_schedule(scheduler.now + delay)
            return schedule(delay, callback)

        def checked_schedule_at(when, callback):
            if when < scheduler.now:
                past_schedule(when)

            def fire():
                self.fires_checked += 1
                if handle.cancelled:
                    record("SAN223", "cancelled-handle-fired",
                           f"cancelled event (scheduled for "
                           f"t={handle.when}) fired anyway",
                           time=handle.when)
                return callback()

            fire.__wrapped__ = callback
            handle = schedule_at(when, fire)
            return handle

        def checked_run(until=None, max_events=None):
            if self._run_depth > 0:
                record("SAN224", "reentrant-run",
                       "run() entered re-entrantly from inside an "
                       "event callback",
                       time=scheduler.now)
            self._run_depth += 1
            try:
                run(until, max_events)
            finally:
                self._run_depth -= 1

        clock.advance_to = checked_advance_to
        scheduler.schedule = checked_schedule
        scheduler.schedule_at = checked_schedule_at
        scheduler.run = checked_run
