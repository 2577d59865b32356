"""Checks on the benchmark itself, at reduced sizes.

Run with ``python3 -m pytest perfbench``.  The pinned counts are the
work each reduced workload does: a change that alters the work (for
example parsing SDP once per cache miss instead of on every delivery)
moves them, and should update them in the same change with the reason.
"""

import gc
import json
import subprocess
import sys
from pathlib import Path

import pytest

import hostspeed
from compare import verdict
from layers import per_layer
from run import traced_reps
from spans import SpanStats
from workloads import AllocSweep, SapChurn, SapRefresh

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def _exact_counts(workload):
    untraced, traced, recorder = traced_reps(workload)
    assert untraced.problems == [] and traced.problems == []
    # Observers never steer: the traced run does the same work.
    assert traced.fingerprint == untraced.fingerprint
    values = per_layer(SpanStats(recorder), traced.counters, 0.0,
                       [m["name"] for m in SPEC["per_layer"]])
    return {name: value for name, value in values.items()
            if name.endswith(("_calls", "_per_delivery")) and value}


def test_sap_churn_counts():
    counts = _exact_counts(SapChurn(1998, harnesses=2, events=3000))
    assert counts == {
        "sim.events.schedule_calls": 6981,
        "sim.events.step_calls": 6000,
        "sim.network.send_calls": 667,
        "sap.messages.encode_calls": 667,
        "sap.messages.decode_calls": 4591,
        "sap.sdp.format_calls": 7644,
        "sap.sdp.parse_calls": 6642,
        "sap.sdp.formats_per_delivery": pytest.approx(7644 / 4591),
        "sap.sdp.parses_per_delivery": pytest.approx(6642 / 4591),
        "sap.cache.observe_hit_calls": 2524,
        "sap.cache.observe_miss_calls": 2059,
        "sap.cache.scan_calls": 4583,
        "sap.clash_protocol.on_announcement_calls": 4583,
        "sap.directory.owns_calls": 2598,
        "sap.directory.owns_per_delivery": pytest.approx(2598 / 4591),
        "core.adaptive.allocate_calls": 297,
    }


def test_sap_refresh_counts():
    counts = _exact_counts(SapRefresh(1998, sites=3, sessions_per_site=40,
                                      space_size=512))
    # 120 sessions: set-up announces each once to 2 sites (misses),
    # each of the 2 timed rounds announces each again (hits).
    assert counts == {
        "sim.events.schedule_calls": 1200,
        "sim.events.step_calls": 1080,
        "sim.network.send_calls": 360,
        "sap.messages.encode_calls": 360,
        "sap.messages.decode_calls": 720,
        "sap.sdp.format_calls": 360,
        "sap.sdp.parse_calls": 960,
        "sap.sdp.formats_per_delivery": 0.5,
        "sap.sdp.parses_per_delivery": pytest.approx(960 / 720),
        "sap.cache.observe_hit_calls": 480,
        "sap.cache.observe_miss_calls": 240,
        "sap.cache.scan_calls": 720,
        "sap.clash_protocol.on_announcement_calls": 720,
        "core.informed.allocate_calls": 120,
    }


def test_sap_refresh_allows_stale_key_after_hash_collision():
    """At seed 55 a session that moved address announces under a key
    another session of its site already holds, so the other caches
    keep its old version.  That is the program's SAP behaviour, not a
    failed run."""
    rep = SapRefresh(55).rep()
    assert rep.fingerprint["address_changes"] == 1
    assert rep.problems == []


def test_alloc_sweep_counts():
    counts = _exact_counts(AllocSweep(1998, nodes=60, space_sizes=(32,),
                                      fig5_trials=1, fig12_trials=1))
    assert counts == {
        "core.random_alloc.allocate_calls": 66,
        "core.informed.allocate_calls": 94,
        "core.iprma.allocate_calls": 1086,
        "core.adaptive.allocate_calls": 1315,
        "core.hybrid.allocate_calls": 390,
        "routing.scoping.scopes_overlap_calls": 2912,
    }


def test_bench_obs_profile_counts():
    """The BENCH_obs steady harness (seed 1998, 10 sessions per site)
    run to its horizon reproduces the profile's counts."""
    workload = SapChurn(1998, harnesses=1, events=10 ** 9)
    workload.sub_seeds = [1998]
    counts = _exact_counts(workload)
    assert counts["sim.events.step_calls"] == 166_379
    assert counts["sap.messages.decode_calls"] == 95_291
    assert counts["sap.sdp.parse_calls"] == 119_425
    assert counts["sap.sdp.format_calls"] == 436_988
    assert counts["sap.directory.owns_calls"] == 146_178


def test_host_probe_leaves_gc_alone_and_scales_by_median():
    assert gc.isenabled()
    assert hostspeed.probe() > 0.0
    assert gc.isenabled()
    probes = [0.030, 0.010, 0.020]
    assert hostspeed.scale(probes) == pytest.approx(
        hostspeed.REFERENCE_S / 0.020)


def test_compare_verdicts():
    parent = {seed: 10.0 + 0.1 * (seed % 3) for seed in range(10)}
    same = dict(parent)
    slower = {seed: value * 1.3 for seed, value in parent.items()}
    faster = {seed: value * 0.7 for seed, value in parent.items()}
    noisy = {seed: 10.0 * (1 + 0.5 * (seed % 2)) for seed in range(10)}
    assert verdict(parent, same, 0.1, "lower") == "same"
    assert verdict(parent, slower, 0.1, "lower") == "WORSE"
    assert verdict(parent, faster, 0.1, "lower") == "better"
    assert verdict(parent, faster, 0.1, "higher") == "WORSE"
    assert verdict(parent, noisy, 0.3, "lower") == "unresolved"


def test_fails_without_program_sources(tmp_path):
    bare = tmp_path / "checkout"
    bare.mkdir()
    (bare / "BENCHMARK.json").write_text(
        (HERE.parent / "BENCHMARK.json").read_text())
    (bare / "perfbench").mkdir()
    for path in HERE.glob("*.py"):
        (bare / "perfbench" / path.name).write_text(path.read_text())
    (bare / "perfbench" / "references.json").write_text(
        (HERE / "references.json").read_text())
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sap-churn",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=bare, capture_output=True, text=True, timeout=120)
    assert child.returncode != 0
    assert '"correct"' not in child.stdout
