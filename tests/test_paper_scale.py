"""Paper-scale verification on the full 1864-node map.

The regular suite runs on reduced topologies for speed.  These tests
rebuild the full 1864-node map — the size of the paper's mcollect
data — and check the anchors that depend on scale, including fig. 5
and steady-state allocation on that map with spaces up to 1,000.  They
take a few seconds, about half of it the scope-map build.
"""

import pytest


@pytest.fixture(scope="module")
def full_mbone():
    from repro.topology.mbone import MboneParams, generate_mbone
    return generate_mbone(MboneParams(total_nodes=1864, seed=1998))


@pytest.fixture(scope="module")
def full_scope_map(full_mbone):
    from repro.routing.scoping import ScopeMap
    return ScopeMap.from_topology(full_mbone)


class TestPaperScale:
    def test_map_size_and_connectivity(self, full_mbone):
        assert abs(full_mbone.num_nodes - 1864) < 40
        assert full_mbone.is_connected()

    def test_hop_count_table_at_scale(self, full_mbone,
                                      full_scope_map):
        from repro.topology.hopcount import hop_count_distribution
        stats = hop_count_distribution(full_mbone,
                                       scope_map=full_scope_map)
        # Paper: 10.6/26, 7.7/18, 7.0/18, 3.1/10.
        assert 8.0 < stats[127].mean_hops < 13.0
        assert 6.0 < stats[63].mean_hops < 10.0
        assert stats[127].max_hops < 32
        assert 1.5 < stats[15].mean_hops < 4.5

    def test_fig5_headline_at_scale(self, full_scope_map):
        from repro.core.iprma import StaticIprmaAllocator
        from repro.core.random_alloc import RandomAllocator
        from repro.experiments.allocation_run import fig5_run
        from repro.experiments.ttl_distributions import DS4

        rows = fig5_run(
            full_scope_map,
            {"R": lambda n, rng: RandomAllocator(n, rng),
             "IPR 7-band": lambda n, rng:
                 StaticIprmaAllocator.seven_band(n, rng)},
            [400, 1000], [DS4], trials=3, seed=1,
        )
        means = {(r.algorithm, r.space_size): r.mean_allocations
                 for r in rows}
        assert means[("IPR 7-band", 1000)] > 5 * means[("R", 1000)]
        # Linear-ish scaling for IPR-7 between the two sizes.
        growth = means[("IPR 7-band", 1000)] / means[("IPR 7-band",
                                                      400)]
        assert growth > 1.5

    def test_scope_asymmetry_exists_at_scale(self, full_scope_map):
        import numpy as np
        need = full_scope_map.need
        asymmetric = np.sum(need != need.T)
        assert asymmetric > 0  # fig. 9's hazard is present

    def test_steady_state_point_at_scale(self, full_scope_map):
        from repro.core.adaptive import AdaptiveIprmaAllocator
        from repro.experiments.steady_state import (
            allocations_at_half_clash,
        )
        from repro.experiments.ttl_distributions import DS4

        value = allocations_at_half_clash(
            full_scope_map,
            lambda n, rng: AdaptiveIprmaAllocator.aipr3(n, rng=rng),
            400, DS4, trials=6, seed=2,
        )
        assert value > 20
