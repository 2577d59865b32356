"""Hop-count distribution tests (fig. 10 / §2.4.1 table)."""

import pytest

from repro.routing.scoping import ScopeMap
from repro.topology.hopcount import (
    PAPER_TTLS,
    hop_count_distribution,
    usage_table,
)


@pytest.fixture(scope="module")
def mbone_stats(small_mbone_module, small_scope_map_module):
    return hop_count_distribution(small_mbone_module,
                                  scope_map=small_scope_map_module)


@pytest.fixture(scope="module")
def small_mbone_module():
    from repro.topology.mbone import MboneParams, generate_mbone
    return generate_mbone(MboneParams(total_nodes=150, seed=42))


@pytest.fixture(scope="module")
def small_scope_map_module(small_mbone_module):
    return ScopeMap.from_topology(small_mbone_module)


class TestHopCountDistribution:
    def test_covers_requested_ttls(self, mbone_stats):
        assert set(mbone_stats) == set(PAPER_TTLS)

    def test_normalized_sums_to_one(self, mbone_stats):
        for stats in mbone_stats.values():
            assert stats.normalized.sum() == pytest.approx(1.0)

    def test_local_scope_smaller_than_global(self, mbone_stats):
        """Fig. 10 shape: local scopes peak at few hops, global at many."""
        assert mbone_stats[15].mean_hops < mbone_stats[63].mean_hops
        assert mbone_stats[63].mean_hops <= mbone_stats[127].mean_hops
        assert mbone_stats[15].max_hops < mbone_stats[127].max_hops

    def test_ttl47_matches_ttl63_outside_europe(self, mbone_stats):
        """TTL 47 behaves like TTL 63 except inside Europe, so its mean
        is close to but no larger than TTL 63's."""
        assert mbone_stats[47].mean_hops <= mbone_stats[63].mean_hops
        assert mbone_stats[47].mean_hops > mbone_stats[15].mean_hops

    def test_max_hops_below_dvmrp_infinity(self, mbone_stats):
        assert mbone_stats[127].max_hops < 32

    def test_mode_within_histogram(self, mbone_stats):
        for stats in mbone_stats.values():
            assert 0 <= stats.mode_hops < len(stats.histogram)
            assert stats.histogram[stats.mode_hops] == stats.histogram.max()

    def test_source_subset(self, small_mbone_module,
                           small_scope_map_module):
        subset = hop_count_distribution(
            small_mbone_module, ttls=(63,),
            scope_map=small_scope_map_module, sources=[0, 1, 2],
        )
        assert 63 in subset
        assert subset[63].histogram.sum() > 0

    def test_empty_scope_handled(self, chain_topology):
        """A TTL nobody can use still yields a well-formed result."""
        stats = hop_count_distribution(chain_topology, ttls=(1,))
        assert stats[1].histogram.sum() == 0
        assert stats[1].mean_hops == 0.0


class TestUsageTable:
    def test_rows_sorted_descending(self, mbone_stats):
        rows = usage_table(mbone_stats)
        ttls = [row["ttl"] for row in rows]
        assert ttls == sorted(ttls, reverse=True)

    def test_known_usage_labels(self, mbone_stats):
        rows = {row["ttl"]: row for row in usage_table(mbone_stats)}
        assert rows[127]["example_usage"] == "Intercontinental"
        assert rows[63]["example_usage"] == "International"
        assert rows[47]["example_usage"] == "National"
        assert rows[15]["example_usage"] == "Local"

    def test_typical_below_max(self, mbone_stats):
        for row in usage_table(mbone_stats):
            assert row["typical_hop_count"] <= row["max_hop_count"]
