"""The three legacy harnesses as committed ScenarioSpec fixtures.

Each hand-coded scenario the repo grew before ``repro.scenario``
existed — the lint determinism kernel, the SAP-in-the-loop clash
harness and the obs steady mesh — must be expressible as a
declarative spec whose engine run reproduces the original harness
**byte for byte**.  The expected traces here are
rebuilt from direct legacy invocations, so a drift in either the
engine dispatch or the harness itself fails the comparison.
"""

import json
from pathlib import Path

import pytest

from repro.scenario.engine import run_spec
from repro.scenario.spec import ScenarioSpec

FIXTURES = Path(__file__).resolve().parents[1] / "examples" / "scenarios"

SEED = 1998


def load_fixture(name):
    with open(FIXTURES / f"{name}.json", "r", encoding="utf-8") as fh:
        return ScenarioSpec.from_dict(json.load(fh))


def header(spec, seed):
    return (f"# scenario {spec.name} kind={spec.kind} "
            f"digest={spec.digest()} seed={seed}")


class TestFixturesRoundTrip:
    @pytest.mark.parametrize("name", ["kernel", "clash", "steady"])
    def test_fixture_loads_validates_and_round_trips(self, name):
        spec = load_fixture(name)
        spec.validate()
        assert spec.kind == name
        again = ScenarioSpec.from_json(spec.to_json())
        assert again == spec
        assert again.digest() == spec.digest()


class TestKernel:
    def test_engine_trace_is_the_lint_kernel_trace(self):
        from repro.lint.determinism import run_scenario as kernel

        spec = load_fixture("kernel")
        run = run_spec(spec, SEED)
        expected = kernel(seed=SEED, num_sites=6,
                          sessions_per_site=3, space_size=12,
                          horizon=240.0)
        assert run.trace == expected
        assert run.sessions_created == 18


class TestClash:
    def test_engine_trace_matches_sap_in_the_loop(self):
        from repro.experiments.sap_in_the_loop import (
            SapLoopConfig,
            run_sap_in_the_loop,
        )
        from repro.routing.scoping import ScopeMap
        from repro.topology.mbone import MboneParams, generate_mbone

        spec = load_fixture("clash")
        run = run_spec(spec, SEED)

        topology = generate_mbone(
            MboneParams(total_nodes=60, seed=SEED))
        result = run_sap_in_the_loop(
            topology, ScopeMap.from_topology(topology),
            SapLoopConfig(num_directories=8, sessions_per_directory=3,
                          space_size=64, loss=0.02,
                          strategy="backoff", inter_arrival=5.0,
                          settle_time=300.0, seed=SEED),
        )
        expected = (
            f"{header(spec, SEED)}\n"
            f"sap-loop: allocations={result.allocations} "
            f"clash_pairs={result.residual_clashing_pairs} "
            f"moves={result.address_changes} "
            f"sent={result.announcements_sent} "
            f"lost={result.announcements_lost} "
            f"clash_rate={result.clash_rate:.6f}\n"
        )
        assert run.trace == expected


class TestSteady:
    def test_engine_trace_matches_obs_steady_mesh(self):
        from repro.experiments.world import mesh_clashing_pairs
        from repro.obs.scenarios import build_steady

        spec = load_fixture("steady")
        run = run_spec(spec, SEED)

        scheduler, directories = build_steady(
            SEED, None, num_sites=8, space_size=16,
            sessions_per_site=6, horizon=600.0)
        scheduler.run(until=600.0)

        lines = [header(spec, SEED)]
        for directory in directories:
            lines.append(
                f"site {directory.node}: "
                f"own={len(directory.own_sessions())} "
                f"cached={len(directory.cache)} "
                f"moves={directory.address_changes} "
                f"recv={directory.announcements_received}"
            )
        live = [own.session for directory in directories
                for own in directory.own_sessions()]
        lines.append(f"clash-pairs={len(mesh_clashing_pairs(live))}")
        lines.append(f"clock: now={scheduler.now:.6f} "
                     f"events={scheduler.events_run}")
        assert run.trace == "\n".join(lines) + "\n"
        assert run.clean

