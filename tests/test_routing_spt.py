"""Shortest-path tree / forest tests."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.routing.spt import ShortestPathForest, topology_csr
from repro.topology.graph import Topology

SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture
def diamond():
    """0 - 1 - 3 and 0 - 2 - 3; metric favours the 0-2-3 path.

        metric(0,1)=5, metric(1,3)=5, metric(0,2)=1, metric(2,3)=1
        delay favours the 0-1-3 path instead.
    """
    topo = Topology()
    for __ in range(4):
        topo.add_node()
    topo.add_link(0, 1, metric=5, delay=0.001)
    topo.add_link(1, 3, metric=5, delay=0.001)
    topo.add_link(0, 2, metric=1, delay=0.5)
    topo.add_link(2, 3, metric=1, delay=0.5)
    return topo


class TestTopologyCsr:
    def test_symmetric(self, diamond):
        csr = topology_csr(diamond, "metric")
        dense = csr.toarray()
        assert np.allclose(dense, dense.T)
        assert dense[0, 1] == 5
        assert dense[0, 2] == 1

    def test_weights(self, diamond):
        by_delay = topology_csr(diamond, "delay").toarray()
        assert by_delay[0, 2] == 0.5
        by_hops = topology_csr(diamond, "hops").toarray()
        assert by_hops[0, 1] == 1

    def test_unknown_weight_rejected(self, diamond):
        with pytest.raises(ValueError):
            topology_csr(diamond, "bananas")


class TestShortestPathForest:
    def test_metric_routing_prefers_low_metric(self, diamond):
        forest = ShortestPathForest(diamond, "metric")
        tree = forest.tree(0)
        assert tree.path(3) == [0, 2, 3]
        assert tree.distance[3] == 2

    def test_delay_routing_prefers_low_delay(self, diamond):
        forest = ShortestPathForest(diamond, "delay")
        tree = forest.tree(0)
        assert tree.path(3) == [0, 1, 3]
        assert tree.distance[3] == pytest.approx(0.002)

    def test_tree_memoised(self, diamond):
        forest = ShortestPathForest(diamond)
        assert forest.tree(0) is forest.tree(0)

    def test_unreachable_path_raises(self):
        topo = Topology()
        topo.add_node()
        topo.add_node()
        topo.add_node()
        topo.add_link(0, 1)
        tree = ShortestPathForest(topo).tree(0)
        assert not tree.reachable()[2]
        with pytest.raises(ValueError):
            tree.path(2)

    def test_all_trees_matches_single_trees(self, diamond):
        forest = ShortestPathForest(diamond)
        pairs = forest.all_trees()
        for source in range(4):
            single = forest.tree(source)
            assert np.allclose(pairs.distance[source], single.distance)

    def test_hop_depths(self, diamond):
        pairs = ShortestPathForest(diamond).all_trees()
        depths = pairs.hop_depths()
        assert depths[0, 0] == 0
        assert depths[0, 2] == 1
        assert depths[0, 3] == 2

    def test_hop_depths_unreachable_is_minus_one(self):
        topo = Topology()
        for __ in range(3):
            topo.add_node()
        topo.add_link(0, 1)
        depths = ShortestPathForest(topo).all_trees().hop_depths()
        assert depths[0, 2] == -1
        assert depths[2, 0] == -1
        assert depths[2, 2] == 0

    def test_hop_depths_on_mbone(self, small_mbone):
        depths = ShortestPathForest(small_mbone).all_trees().hop_depths()
        n = small_mbone.num_nodes
        assert depths.shape == (n, n)
        assert (np.diag(depths) == 0).all()
        assert (depths >= 0).all()  # connected map
        # Hop depth differs from its transpose by at most tie-breaks,
        # but both directions must be positive and bounded.
        assert depths.max() < 64


#: Imports the package and its tools, runs the steady churn harness
#: over its 600 s horizon (partition, heal and retreats included), then
#: routes a 40-node Mbone.  Prints the scipy modules loaded before
#: routing, and whether Dijkstra's module is loaded after it.
_SCIPY_PROBE = """
import json
import sys

import repro
import repro.experiments
import repro.lint
import repro.modelcheck
import repro.sanitize
import repro.sap
import repro.sim
from repro.obs.scenarios import build_steady

scheduler, __ = build_steady(1998)
scheduler.run(until=600.0)
before = sorted(name for name in sys.modules
                if name == "scipy" or name.startswith("scipy."))

from repro.routing.scoping import ScopeMap
from repro.topology.mbone import MboneParams, generate_mbone

ScopeMap.from_topology(generate_mbone(MboneParams(total_nodes=40,
                                                  seed=1998)))
print(json.dumps({"before": before,
                  "after": "scipy.sparse.csgraph" in sys.modules}))
"""


def test_scipy_loads_only_where_a_topology_is_routed():
    """SAP harnesses run on receiver maps and never load scipy; the
    first shortest-path forest does.  This process has imported scipy
    already, so a fresh interpreter runs the probe."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH", "")) if p)
    result = subprocess.run([sys.executable, "-c", _SCIPY_PROBE],
                            capture_output=True, text=True, env=env,
                            check=False)
    assert result.returncode == 0, result.stderr
    loaded = json.loads(result.stdout)
    assert loaded["before"] == []
    assert loaded["after"] is True
