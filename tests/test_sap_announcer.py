"""Announcement strategy and announcer loop tests."""

import numpy as np
import pytest

from repro.analysis.announcement import ExponentialBackoffSchedule
from repro.sap.announcer import (
    Announcer,
    ExponentialBackoffStrategy,
    FixedIntervalStrategy,
)
from repro.sim.events import EventScheduler


class TestStrategies:
    def test_fixed(self):
        strategy = FixedIntervalStrategy(300.0)
        assert strategy.next_interval(1) == 300.0
        assert strategy.next_interval(50) == 300.0

    def test_fixed_validation(self):
        with pytest.raises(ValueError):
            FixedIntervalStrategy(0.0)

    def test_backoff_doubles_then_caps(self):
        strategy = ExponentialBackoffStrategy(
            ExponentialBackoffSchedule(5.0, 2.0, 600.0)
        )
        assert strategy.next_interval(1) == 5.0
        assert strategy.next_interval(2) == 10.0
        assert strategy.next_interval(3) == 20.0
        assert strategy.next_interval(50) == 600.0


class TestAnnouncer:
    def make(self, sched, strategy, jitter=0.0):
        sent = []
        announcer = Announcer(
            scheduler=sched,
            send=lambda: sent.append(sched.now),
            strategy=strategy,
            rng=np.random.default_rng(0),
            jitter_fraction=jitter,
        )
        return announcer, sent

    def test_announces_immediately_then_periodically(self):
        sched = EventScheduler()
        announcer, sent = self.make(sched, FixedIntervalStrategy(10.0))
        announcer.start()
        sched.run(until=35.0)
        assert sent == [0.0, 10.0, 20.0, 30.0]
        assert announcer.announcements_sent == 4

    def test_stop_halts_loop(self):
        sched = EventScheduler()
        announcer, sent = self.make(sched, FixedIntervalStrategy(10.0))
        announcer.start()
        sched.run(until=15.0)
        announcer.stop()
        sched.run(until=100.0)
        assert sent == [0.0, 10.0]
        assert not announcer.running

    def test_start_idempotent(self):
        sched = EventScheduler()
        announcer, sent = self.make(sched, FixedIntervalStrategy(10.0))
        announcer.start()
        announcer.start()
        sched.run(until=1.0)
        assert sent == [0.0]

    def test_backoff_timing(self):
        sched = EventScheduler()
        announcer, sent = self.make(
            sched,
            ExponentialBackoffStrategy(
                ExponentialBackoffSchedule(5.0, 2.0, 600.0)
            ),
        )
        announcer.start()
        sched.run(until=36.0)
        assert sent == [0.0, 5.0, 15.0, 35.0]

    def test_announce_now_extra_send(self):
        sched = EventScheduler()
        announcer, sent = self.make(sched, FixedIntervalStrategy(100.0))
        announcer.start()
        sched.run(until=1.0)
        announcer.announce_now()
        assert sent == [0.0, 1.0]

    def test_announce_now_ignored_when_stopped(self):
        sched = EventScheduler()
        announcer, sent = self.make(sched, FixedIntervalStrategy(100.0))
        announcer.announce_now()
        assert sent == []

    def test_jitter_spreads_interval(self):
        sched = EventScheduler()
        announcer, sent = self.make(sched, FixedIntervalStrategy(10.0),
                                    jitter=0.3)
        announcer.start()
        sched.run(until=100.0)
        gaps = np.diff(sent)
        assert (gaps >= 7.0 - 1e-9).all()
        assert (gaps <= 13.0 + 1e-9).all()
        assert gaps.std() > 0.1

    def test_invalid_jitter_rejected(self):
        sched = EventScheduler()
        with pytest.raises(ValueError):
            Announcer(sched, lambda: None, FixedIntervalStrategy(1.0),
                      np.random.default_rng(0), jitter_fraction=1.5)
