"""Response delay timer tests."""

import numpy as np
import pytest

from repro.sap.response_timer import ExponentialDelayTimer, UniformDelayTimer


def samples_of(timer, count):
    """``count`` delays from ``sample()``, one call each."""
    return np.array([timer.sample() for __ in range(count)])


class TestUniformDelayTimer:
    def test_within_interval(self, rng):
        timer = UniformDelayTimer(1.0, 5.0, rng)
        samples = samples_of(timer, 1000)
        assert samples.min() >= 1.0
        assert samples.max() <= 5.0

    def test_roughly_uniform(self, rng):
        timer = UniformDelayTimer(0.0, 1.0, rng)
        samples = samples_of(timer, 4000)
        hist, __ = np.histogram(samples, bins=4, range=(0, 1))
        assert hist.min() > 800

    def test_scalar_sample(self, rng):
        timer = UniformDelayTimer(2.0, 3.0, rng)
        assert 2.0 <= timer.sample() <= 3.0

    def test_invalid_interval(self, rng):
        with pytest.raises(ValueError):
            UniformDelayTimer(5.0, 1.0, rng)
        with pytest.raises(ValueError):
            UniformDelayTimer(-1.0, 1.0, rng)


class TestExponentialDelayTimer:
    def test_within_interval(self, rng):
        timer = ExponentialDelayTimer(0.5, 6.4, rtt=0.2, rng=rng)
        samples = samples_of(timer, 1000)
        assert samples.min() >= 0.5 - 1e-9
        assert samples.max() <= 6.4 + 1e-6

    def test_mass_concentrates_late(self, rng):
        """Exponential delays cluster near D2 (late buckets are the
        likely ones); the median sits within ~2 RTT of D2."""
        timer = ExponentialDelayTimer(0.0, 6.4, rtt=0.2, rng=rng)
        samples = samples_of(timer, 2000)
        assert np.median(samples) > 6.4 - 0.5
        # Early responses are exponentially rare: with d = 32 buckets,
        # P(delay < D2/2) = 2^-16.
        assert (samples < 3.2).mean() < 0.01
        # With coarser buckets (d = 8) early responders do appear.
        coarse = ExponentialDelayTimer(0.0, 6.4, rtt=0.8, rng=rng)
        early = (samples_of(coarse, 2000) < 3.2).mean()
        assert 0.001 < early < 0.2

    def test_scalar_and_vector_agree_in_range(self, rng):
        timer = ExponentialDelayTimer(1.0, 4.0, rtt=0.5, rng=rng)
        for __ in range(50):
            assert 1.0 - 1e-9 <= timer.sample() <= 4.0 + 1e-6

    def test_invalid_rtt(self, rng):
        with pytest.raises(ValueError):
            ExponentialDelayTimer(0.0, 1.0, rtt=0.0, rng=rng)
