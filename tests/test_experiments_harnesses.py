"""Experiment harness tests (figs. 5, 12/13, 15-19 machinery)."""

import numpy as np
import pytest

from repro.core.informed import InformedRandomAllocator
from repro.core.iprma import StaticIprmaAllocator
from repro.core.random_alloc import RandomAllocator
from repro.experiments.allocation_run import (
    allocations_before_first_clash,
    fig5_run,
)
from repro.experiments.request_response import (
    RequestResponseConfig,
    simulate_request_response,
)
from repro.experiments.steady_state import (
    allocations_at_half_clash,
    steady_state_clash_probability,
)
from repro.experiments.ttl_distributions import (
    ALL_DISTRIBUTIONS,
    DS1,
    DS4,
    TtlDistribution,
)
from repro.topology.doar import DoarParams, generate_doar


class TestTtlDistributions:
    def test_paper_values(self):
        assert DS1.values == (1, 15, 31, 47, 63, 127, 191)
        assert len(DS4.values) == 22
        assert DS4.values.count(1) == 8
        assert DS4.values.count(15) == 6

    def test_all_share_support(self):
        for dist in ALL_DISTRIBUTIONS:
            assert sorted(set(dist.values)) == [1, 15, 31, 47, 63, 127, 191]

    def test_sampling(self, rng):
        samples = [DS4.sample(rng) for __ in range(2000)]
        values, counts = np.unique(samples, return_counts=True)
        assert set(values) <= set(DS4.values)
        # TTL 1 appears 8/22 of the time.
        share = counts[values == 1][0] / 2000
        assert 0.30 <= share <= 0.43

    def test_scalar_sample(self, rng):
        assert DS1.sample(rng) in DS1.values

    def test_validation(self):
        with pytest.raises(ValueError):
            TtlDistribution("bad", ())
        with pytest.raises(ValueError):
            TtlDistribution("bad", (0,))


class TestAllocationRun:
    def test_runs_and_is_deterministic(self, small_scope_map):
        rng1 = np.random.default_rng(5)
        rng2 = np.random.default_rng(5)
        factory = lambda n, r: RandomAllocator(n, r)
        a = allocations_before_first_clash(small_scope_map, factory, 100,
                                           DS1, rng1)
        b = allocations_before_first_clash(small_scope_map, factory, 100,
                                           DS1, rng2)
        assert a == b
        assert a > 0

    def test_cap_respected(self, small_scope_map):
        factory = lambda n, r: StaticIprmaAllocator.seven_band(n, r)
        count = allocations_before_first_clash(
            small_scope_map, factory, 400, DS4,
            np.random.default_rng(0), max_allocations=25,
        )
        assert count <= 25

    def test_fig5_ordering(self, small_scope_map):
        """The headline fig. 5 result: IPR-7 >> IR >= R at equal space."""
        algorithms = {
            "R": lambda n, r: RandomAllocator(n, r),
            "IR": lambda n, r: InformedRandomAllocator(n, r),
            "IPR 7-band": lambda n, r: StaticIprmaAllocator.seven_band(
                n, r),
        }
        rows = fig5_run(small_scope_map, algorithms, [400], [DS4],
                        trials=3, seed=1)
        means = {row.algorithm: row.mean_allocations for row in rows}
        assert means["IPR 7-band"] > 3 * means["R"]
        assert means["IR"] >= means["R"] * 0.8

    def test_fig5_row_structure(self, small_scope_map):
        rows = fig5_run(small_scope_map,
                        {"R": lambda n, r: RandomAllocator(n, r)},
                        [100, 200], [DS1, DS4], trials=2)
        assert len(rows) == 4
        assert {row.space_size for row in rows} == {100, 200}


class TestSteadyState:
    def test_probability_monotone_in_n(self, small_scope_map):
        factory = lambda n, r: StaticIprmaAllocator.seven_band(n, r)
        p_small = steady_state_clash_probability(
            small_scope_map, factory, 200, 20, DS4, trials=6, seed=2)
        p_large = steady_state_clash_probability(
            small_scope_map, factory, 200, 600, DS4, trials=6, seed=2)
        assert p_small <= p_large
        assert p_large > 0.4

    def test_half_point_search(self, small_scope_map):
        factory = lambda n, r: StaticIprmaAllocator.seven_band(n, r)
        n_half = allocations_at_half_clash(
            small_scope_map, factory, 150, DS4, trials=6, seed=3)
        assert 10 < n_half <= 600

    def test_same_site_variant_runs(self, small_scope_map):
        factory = lambda n, r: StaticIprmaAllocator.seven_band(n, r)
        p = steady_state_clash_probability(
            small_scope_map, factory, 150, 50, DS4, trials=4, seed=4,
            same_site_replacement=True)
        assert 0.0 <= p <= 1.0

    def test_invalid_n_rejected(self, small_scope_map):
        factory = lambda n, r: RandomAllocator(n, r)
        with pytest.raises(ValueError):
            steady_state_clash_probability(
                small_scope_map, factory, 100, 0, DS4)


class TestRequestResponse:
    @pytest.fixture(scope="class")
    def doar(self):
        return generate_doar(DoarParams(num_nodes=200, seed=11))

    def test_uniform_fewer_responses_with_longer_d2(self, doar):
        short = simulate_request_response(
            doar, RequestResponseConfig(d2=0.2, trials=6, seed=1))
        long = simulate_request_response(
            doar, RequestResponseConfig(d2=51.2, trials=6, seed=1))
        assert long.mean_responses < short.mean_responses
        assert long.mean_responses >= 1.0

    def test_exponential_beats_uniform(self, doar):
        uniform = simulate_request_response(
            doar, RequestResponseConfig(d2=3.2, timer="uniform",
                                        trials=8, seed=2))
        exponential = simulate_request_response(
            doar, RequestResponseConfig(d2=3.2, timer="exponential",
                                        trials=8, seed=2))
        assert exponential.mean_responses < uniform.mean_responses

    def test_at_least_one_response(self, doar):
        for routing in ("spt", "shared"):
            result = simulate_request_response(
                doar, RequestResponseConfig(d2=1.0, routing=routing,
                                            trials=5, seed=3))
            assert result.mean_responses >= 1.0
            assert result.mean_first_delay > 0.0
            assert result.max_first_delay >= result.mean_first_delay

    def test_shared_vs_spt_both_work(self, doar):
        """Paper: 'a small difference between shortest-path trees and
        shared trees ... but not one that greatly affects the choice'."""
        spt = simulate_request_response(
            doar, RequestResponseConfig(d2=6.4, routing="spt",
                                        trials=10, seed=4))
        shared = simulate_request_response(
            doar, RequestResponseConfig(d2=6.4, routing="shared",
                                        trials=10, seed=4))
        assert 0.2 < spt.mean_responses / shared.mean_responses < 5.0

    def test_jitter_variant_runs(self, doar):
        result = simulate_request_response(
            doar, RequestResponseConfig(d2=1.0, jitter=0.05,
                                        trials=4, seed=5))
        assert result.mean_responses >= 1.0

    def test_deterministic(self, doar):
        config = RequestResponseConfig(d2=1.0, trials=4, seed=6)
        a = simulate_request_response(doar, config)
        b = simulate_request_response(doar, config)
        assert a.mean_responses == b.mean_responses
        assert a.mean_first_delay == b.mean_first_delay

    def test_config_validation(self):
        with pytest.raises(ValueError):
            RequestResponseConfig(d2=1.0, timer="gaussian")
        with pytest.raises(ValueError):
            RequestResponseConfig(d2=1.0, routing="flooding")
        with pytest.raises(ValueError):
            RequestResponseConfig(d2=-1.0)
        with pytest.raises(ValueError):
            RequestResponseConfig(d2=1.0, trials=0)
        with pytest.raises(ValueError):
            RequestResponseConfig(d2=1.0, member_fraction=0.0)

    def test_member_fraction_shrinks_responder_pool(self, doar):
        """§3's refinement: restricting responders to announcing
        sites cuts the response count at small D2."""
        everyone = simulate_request_response(
            doar, RequestResponseConfig(d2=0.2, trials=8, seed=7))
        members = simulate_request_response(
            doar, RequestResponseConfig(d2=0.2, trials=8, seed=7,
                                        member_fraction=0.1))
        assert members.mean_responses < everyone.mean_responses

    def test_member_fraction_zero_responders_safe(self):
        """A round where nobody is a member yields 0 responses and a
        NaN first delay, not a crash."""
        import math
        tiny = generate_doar(DoarParams(num_nodes=5, seed=2,
                                        redundant_links=False))
        result = simulate_request_response(
            tiny, RequestResponseConfig(d2=0.2, trials=4, seed=1,
                                        member_fraction=0.01))
        assert result.mean_responses < 1.0
        assert result.mean_responses >= 0.0 or \
            math.isnan(result.mean_first_delay)
