"""Tests for sim.adapters and experiments.reporting."""

import pytest

from repro.experiments.reporting import format_table, print_series
from repro.routing.scoping import ScopeMap
from repro.routing.spt import ShortestPathForest
from repro.sim.adapters import build_network_stack, scoped_receiver_map


class TestScopedReceiverMap:
    def test_receivers_match_scope(self, chain_topology,
                                   chain_scope_map):
        forest = ShortestPathForest(chain_topology, weight="delay")
        receivers = scoped_receiver_map(chain_scope_map, forest)
        got = dict(receivers(0, 18))
        # need[0] = [0, 2, 18, 18, 68]: nodes 0..3 in scope.
        assert set(got) == {0, 1, 2, 3}

    def test_delays_are_path_delays(self, chain_topology,
                                    chain_scope_map):
        forest = ShortestPathForest(chain_topology, weight="delay")
        receivers = scoped_receiver_map(chain_scope_map, forest)
        got = dict(receivers(0, 255))
        assert got[1] == pytest.approx(0.010)
        assert got[4] == pytest.approx(0.100)

    def test_small_ttl_only_source(self, chain_topology,
                                   chain_scope_map):
        forest = ShortestPathForest(chain_topology, weight="delay")
        receivers = scoped_receiver_map(chain_scope_map, forest)
        assert dict(receivers(0, 1)) == {0: 0.0}

    def test_build_network_stack(self, chain_topology):
        scope_map, forest, receivers = build_network_stack(
            chain_topology
        )
        assert isinstance(scope_map, ScopeMap)
        assert dict(receivers(0, 2)) == {0: 0.0, 1: pytest.approx(0.01)}


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["name", "value"],
                            [("a", 1), ("long-name", 22)])
        lines = text.splitlines()
        assert len(lines) == 4
        assert set(lines[1]) <= {"-", " "}
        # Every line has equal width.
        assert len({len(line) for line in lines}) == 1

    def test_float_formatting(self):
        text = format_table(["x"], [(1.5,), (0.001234,), (12345.6,),
                                    (float("nan"),)])
        assert "1.5" in text
        assert "0.00123" in text
        assert "1.23e+04" in text
        assert "nan" in text

    def test_trailing_zeros_trimmed(self):
        text = format_table(["x"], [(2.0,)])
        assert " 2" in text or text.endswith("2")
        assert "2.000" not in text

    def test_empty_rows(self):
        text = format_table(["a", "b"], [])
        assert "a" in text and "b" in text

    def test_print_series(self, capsys):
        print_series("demo", ["k"], [("v",)])
        out = capsys.readouterr().out
        assert "== demo ==" in out
        assert "v" in out

