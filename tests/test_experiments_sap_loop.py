"""SAP-in-the-loop experiment tests."""

import pytest

from repro.experiments.sap_in_the_loop import (
    SapLoopConfig,
    SapLoopResult,
    run_sap_in_the_loop,
)
from repro.experiments.ttl_distributions import DS1
from repro.routing.scoping import ScopeMap
from repro.topology.mbone import MboneParams, generate_mbone


@pytest.fixture(scope="module")
def loop_world():
    topology = generate_mbone(MboneParams(total_nodes=150, seed=6))
    return topology, ScopeMap.from_topology(topology)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SapLoopConfig(strategy="sometimes")
        with pytest.raises(ValueError):
            SapLoopConfig(loss=1.0)
        with pytest.raises(ValueError):
            SapLoopConfig(num_directories=1)


class TestRun:
    def test_roomy_configuration_clash_free(self, loop_world):
        topology, scope_map = loop_world
        config = SapLoopConfig(num_directories=10,
                               sessions_per_directory=3,
                               space_size=512, inter_arrival=30.0,
                               seed=1)
        result = run_sap_in_the_loop(topology, scope_map, config)
        assert result.allocations == 30
        assert result.residual_clashing_pairs == 0
        assert result.announcements_sent > 30

    def test_deterministic(self, loop_world):
        topology, scope_map = loop_world
        config = SapLoopConfig(num_directories=8,
                               sessions_per_directory=2, seed=9,
                               settle_time=300.0)
        a = run_sap_in_the_loop(topology, scope_map, config)
        b = run_sap_in_the_loop(topology, scope_map, config)
        assert a == b

    def test_flash_crowd_races_repaired(self, loop_world):
        topology, scope_map = loop_world
        base = dict(num_directories=20, sessions_per_directory=8,
                    space_size=600, inter_arrival=0.005,
                    distribution=DS1, settle_time=600.0)
        residual_off = 0
        for seed in (2, 3, 4, 5):
            off = run_sap_in_the_loop(
                topology, scope_map,
                SapLoopConfig(seed=seed, enable_clash_protocol=False,
                              **base),
            )
            residual_off += off.residual_clashing_pairs
            on = run_sap_in_the_loop(
                topology, scope_map,
                SapLoopConfig(seed=seed, enable_clash_protocol=True,
                              **base),
            )
            assert on.residual_clashing_pairs == 0
        assert residual_off >= 1

    def test_backoff_sends_more_announcements_early(self, loop_world):
        topology, scope_map = loop_world
        base = dict(num_directories=8, sessions_per_directory=2,
                    settle_time=600.0, seed=4)
        fixed = run_sap_in_the_loop(
            topology, scope_map, SapLoopConfig(strategy="fixed", **base)
        )
        backoff = run_sap_in_the_loop(
            topology, scope_map,
            SapLoopConfig(strategy="backoff", **base),
        )
        assert backoff.announcements_sent > fixed.announcements_sent

    def test_loss_counted(self, loop_world):
        topology, scope_map = loop_world
        config = SapLoopConfig(num_directories=8,
                               sessions_per_directory=3, loss=0.4,
                               seed=7, settle_time=600.0)
        result = run_sap_in_the_loop(topology, scope_map, config)
        assert result.announcements_lost > 0


class TestPinned:
    def test_seed_1998_clash_configuration(self):
        """Eight directories of three sessions each in a 64-address
        space on a 60-node map: every session settles clash-free
        without a move."""
        topology = generate_mbone(MboneParams(total_nodes=60, seed=1998))
        config = SapLoopConfig(num_directories=8,
                               sessions_per_directory=3, space_size=64,
                               loss=0.02, strategy="backoff",
                               inter_arrival=5.0, settle_time=300.0,
                               seed=1998)
        result = run_sap_in_the_loop(
            topology, ScopeMap.from_topology(topology), config)
        assert result == SapLoopResult(
            allocations=24, residual_clashing_pairs=0,
            address_changes=0, announcements_sent=167,
            announcements_lost=5, clash_rate=0.0,
        )
