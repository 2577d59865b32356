"""Announcement channel tests."""

import pytest

from repro.sap.channel import AnnouncementChannel


class TestAnnouncementChannel:
    def test_empty_channel_floor_interval(self):
        channel = AnnouncementChannel()
        assert channel.interval() == 300.0

    def test_interval_scales_with_population(self):
        channel = AnnouncementChannel(bandwidth_bps=4000,
                                      mean_payload_bytes=500)
        for key in range(1000):
            channel.register(key)
        # 1000 ads * 500 B * 8 / 4000 bps = 1000 s per announcement.
        assert channel.interval() == pytest.approx(1000.0)

    def test_small_population_hits_floor(self):
        channel = AnnouncementChannel()
        channel.register("one")
        assert channel.interval() == 300.0

    def test_stats_invisibility_grows_with_population(self):
        sparse = AnnouncementChannel()
        dense = AnnouncementChannel()
        for key in range(10):
            sparse.register(key)
        for key in range(10_000):
            dense.register(key)
        assert dense.stats().invisible_fraction > \
            sparse.stats().invisible_fraction
        assert dense.stats().interval > sparse.stats().interval

    def test_validation(self):
        with pytest.raises(ValueError):
            AnnouncementChannel(bandwidth_bps=0)
        with pytest.raises(ValueError):
            AnnouncementChannel(min_interval=0)
        with pytest.raises(ValueError):
            AnnouncementChannel(mean_payload_bytes=0)
