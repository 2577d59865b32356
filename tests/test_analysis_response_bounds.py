"""Eq. 2 / eq. 4 responder-bound tests (figs. 14 and 18)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.response_bounds import (
    EXPONENTIAL_LIMIT,
    exponential_delay_array,
    exponential_delay_sample,
    exponential_double_sum,
    exponential_expected_responses,
    uniform_delay_sample,
    uniform_double_sum,
    uniform_expected_responses,
)


class TestUniformBound:
    def test_single_bucket_everyone_responds(self):
        assert uniform_expected_responses(7, 1) == pytest.approx(7.0)

    def test_single_responder(self):
        assert uniform_expected_responses(1, 10) == pytest.approx(1.0)

    @pytest.mark.parametrize("n,d", [(2, 2), (3, 4), (5, 7), (8, 3),
                                     (10, 10), (4, 1)])
    def test_collapsed_matches_double_sum(self, n, d):
        assert uniform_expected_responses(n, d) == pytest.approx(
            uniform_double_sum(n, d), rel=1e-9
        )

    def test_fig14_shape_needs_many_buckets(self):
        """Fig. 14: for large n the uniform bound stays high unless d
        is enormous — roughly n/d when n >> d."""
        assert uniform_expected_responses(51_200, 1024) == pytest.approx(
            50.0, rel=0.01
        )
        assert uniform_expected_responses(800, 64) > 10
        assert uniform_expected_responses(800, 6400) < 1.2

    def test_monotone_decreasing_in_d(self):
        values = [uniform_expected_responses(1000, d)
                  for d in (1, 4, 16, 64, 256)]
        assert all(b < a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            uniform_expected_responses(0, 5)
        with pytest.raises(ValueError):
            uniform_expected_responses(5, 0)

    @given(st.integers(1, 300), st.integers(1, 300))
    @settings(max_examples=50, deadline=None)
    def test_property_bounds(self, n, d):
        e = uniform_expected_responses(n, d)
        assert 1.0 - 1e-9 <= e <= n + 1e-9


class TestExponentialBound:
    @pytest.mark.parametrize("n,d", [(2, 2), (3, 4), (5, 7), (10, 10),
                                     (20, 6)])
    def test_collapsed_matches_double_sum(self, n, d):
        assert exponential_expected_responses(n, d) == pytest.approx(
            exponential_double_sum(n, d), rel=1e-9
        )

    def test_limit_is_one_over_ln2(self):
        """'the limit in this case is a mean of 1.442695 responses'."""
        value = exponential_expected_responses(100_000, 40)
        assert value == pytest.approx(EXPONENTIAL_LIMIT, abs=1e-3)
        assert EXPONENTIAL_LIMIT == pytest.approx(1.442695, abs=1e-6)

    def test_weak_dependence_on_group_size(self):
        """Fig. 18: the cut-off moves only slowly with n."""
        small = exponential_expected_responses(400, 20)
        large = exponential_expected_responses(25_600, 20)
        assert large < small * 2
        assert large < 2.0

    def test_beats_uniform_at_same_d(self):
        for n in (100, 1000, 10_000):
            assert exponential_expected_responses(n, 30) < \
                uniform_expected_responses(n, 30)

    def test_large_d_numerically_stable(self):
        value = exponential_expected_responses(10_000, 1024)
        assert 1.0 <= value <= 1.5

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            exponential_expected_responses(0, 5)
        with pytest.raises(ValueError):
            exponential_double_sum(5, 60)


class TestDelaySamples:
    def test_uniform_endpoints(self):
        assert uniform_delay_sample(0.0, 1.0, 5.0) == 1.0
        assert uniform_delay_sample(1.0, 1.0, 5.0) == 5.0

    def test_exponential_endpoints(self):
        assert exponential_delay_sample(0.0, 1.0, 5.0, 0.2) == \
            pytest.approx(1.0)
        assert exponential_delay_sample(1.0, 1.0, 5.0, 0.2) == \
            pytest.approx(5.0)

    def test_exponential_median_near_top(self):
        """Half the probability mass lives in the last bucket."""
        d1, d2, r = 0.0, 4.0, 0.2
        mid = exponential_delay_sample(0.5, d1, d2, r)
        assert mid > d2 - 2 * r

    def test_array_matches_scalar(self):
        xs = np.linspace(0, 1, 11)
        arr = exponential_delay_array(xs, 0.5, 6.4, 0.2)
        for x, v in zip(xs, arr):
            assert v == pytest.approx(
                exponential_delay_sample(float(x), 0.5, 6.4, 0.2)
            )

    def test_huge_d_stable(self):
        v = exponential_delay_sample(0.5, 0.0, 200.0, 0.0001)
        assert 0.0 <= v <= 200.0
        arr = exponential_delay_array(np.array([0.0, 0.5, 1.0]),
                                      0.0, 200.0, 0.0001)
        assert arr[0] == 0.0
        assert arr[2] == pytest.approx(200.0, rel=1e-6)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            uniform_delay_sample(0.5, 2.0, 1.0)
        with pytest.raises(ValueError):
            exponential_delay_sample(0.5, 0.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            exponential_delay_sample(1.5, 0.0, 1.0, 0.2)

    @given(st.floats(0.0, 1.0))
    def test_property_exponential_within_interval(self, x):
        v = exponential_delay_sample(x, 0.5, 6.4, 0.2)
        assert 0.5 - 1e-9 <= v <= 6.4 + 1e-6
