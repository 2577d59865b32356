"""Eq. 1 / fig. 6 model tests."""

import math

import pytest

from repro.analysis.clash_model import (
    allocations_before_half,
    fig6_series,
    iprma_concurrent_sessions,
    no_clash_probability,
    single_allocation_no_clash,
)


class TestEquationOne:
    def test_no_invisible_no_clash(self):
        assert single_allocation_no_clash(100, 50, 0) == 1.0
        assert no_clash_probability(100, 50, 0) == 1.0

    def test_full_partition_certain_clash(self):
        assert single_allocation_no_clash(100, 100, 1) == 0.0
        assert no_clash_probability(100, 100, 1) == 0.0

    def test_hand_computed_value(self):
        # c = (100-50)/(100+5-50) = 50/55
        assert single_allocation_no_clash(100, 50, 5) == pytest.approx(
            50 / 55
        )
        assert no_clash_probability(100, 50, 5) == pytest.approx(
            (50 / 55) ** 50
        )

    def test_zero_sessions(self):
        assert no_clash_probability(100, 0, 0) == 1.0

    def test_monotone_in_m(self):
        values = [no_clash_probability(1000, m, 0.001 * m)
                  for m in range(0, 1000, 50)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_monotone_in_i(self):
        values = [no_clash_probability(1000, 500, i)
                  for i in (0, 1, 5, 20, 100)]
        assert all(b <= a for a, b in zip(values, values[1:]))

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            no_clash_probability(0, 1, 1)
        with pytest.raises(ValueError):
            no_clash_probability(10, -1, 0)


class TestFig6:
    def test_paper_headline_number(self):
        """§2.3: ~16,496 concurrent sessions for 65,536/8 at i=0.001m.

        Our exact evaluation gives 16,488 (paper rounds slightly
        differently); assert within 0.5%.
        """
        value = iprma_concurrent_sessions()
        assert abs(value - 16_496) / 16_496 < 0.005

    def test_boundary_crossing(self):
        m = allocations_before_half(8192, 0.001)
        assert no_clash_probability(8192, m, 0.001 * m) >= 0.5
        assert no_clash_probability(8192, m + 1, 0.001 * (m + 1)) < 0.5

    def test_smaller_i_allocates_more(self):
        curves = fig6_series([1000, 10_000])
        assert curves[0.00001][0] > curves[0.0001][0] > \
            curves[0.001][0] > curves[0.01][0]

    def test_between_sqrt_and_linear_bounds(self):
        """Fig. 6 plots y=x and y=sqrt(x) as the bounding curves."""
        for n in (100, 1000, 10_000, 100_000):
            for frac in (0.01, 0.001, 0.0001):
                m = allocations_before_half(n, frac)
                assert m <= n
                # With any invisibility, packing beats the pure
                # birthday floor but the bound sqrt(n) only holds as a
                # *lower* reference at small i; assert >= 0.3*sqrt(n).
                assert m >= 0.3 * math.sqrt(n)

    def test_packing_fraction_degrades_with_size(self):
        """'address space packing is good for small partitions, but
        gets worse as the size of the partition increases'."""
        frac_small = allocations_before_half(100, 0.001) / 100
        frac_large = allocations_before_half(100_000, 0.001) / 100_000
        assert frac_small > frac_large

    def test_perfect_information_linear(self):
        assert allocations_before_half(1000, 0.0) == 999

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            allocations_before_half(0, 0.001)
        with pytest.raises(ValueError):
            allocations_before_half(100, -0.1)
