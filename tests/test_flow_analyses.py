"""Seeded-defect tests: each analysis must catch its mutation.

Every test has the same shape as the modelcheck mutation suite: a
*clean twin* that passes, and one injected defect that must produce
exactly the expected FLOW code.  This is the evidence the analyses
detect what they claim to detect, not merely that ``src/`` happens
to be quiet.
"""

from repro.flow.analysis import analyze_sources

#: ``cmd_*`` functions in ``repro.cli`` are entry points.
CLI_PATH = "src/repro/cli.py"

PRELUDE = (
    "import numpy as np\n"
    "from repro.sim.rng import derived_stream\n"
)


def codes(report):
    return sorted({f.code for f in report.findings})


def analyze_job(body, extra_sources=()):
    text = PRELUDE + body
    return analyze_sources([(CLI_PATH, text), *extra_sources])


# --- FLOW601: untraced draw on an entry path ------------------------

def test_untraced_draw_in_job_fires_flow601():
    report = analyze_job(
        "def cmd_mut(args):\n"
        "    wild = np.random.default_rng()\n"
        "    return wild.random()\n"
    )
    assert "FLOW601" in codes(report)


def test_untraced_draw_under_a_tool_cli_fires_flow601():
    # ``repro <tool>`` runs the tool's own main, so a draw reached
    # from it is on an experiment path.
    report = analyze_sources([(
        "src/repro/lint/cli.py",
        "import numpy as np\n"
        "def main(argv=None):\n"
        "    wild = np.random.default_rng()\n"
        "    return int(wild.integers(2))\n",
    )])
    assert "FLOW601" in codes(report)


def test_entry_point_rng_draw_is_clean():
    report = analyze_job(
        "def cmd_ok(args, rng):\n"
        "    return float(rng.random())\n"
    )
    assert codes(report) == []


def test_seeded_generator_is_clean():
    report = analyze_job(
        "def cmd_ok(args):\n"
        "    local = np.random.default_rng(int(args.seed))\n"
        "    return float(local.random())\n"
    )
    assert codes(report) == []


# --- FLOW602: stream-key collision ----------------------------------

def test_stream_key_collision_fires_flow602():
    report = analyze_job(
        "def component_a():\n"
        "    return derived_stream('shared.key').random()\n"
        "def component_b():\n"
        "    return derived_stream('shared.key').random()\n"
    )
    assert "FLOW602" in codes(report)


def test_distinct_stream_keys_are_clean():
    report = analyze_job(
        "def component_a():\n"
        "    return derived_stream('mod.a').random()\n"
        "def component_b():\n"
        "    return derived_stream('mod.b').random()\n"
    )
    assert "FLOW602" not in codes(report)


def test_scenario_fuzz_key_reused_cross_site_fires_flow602():
    # The scenario namespace is part of the repo-wide key space: a
    # second site minting the same ``scenario/fuzz/...`` key is the
    # exact collision FLOW602 exists to catch.
    report = analyze_job(
        "def site_a():\n"
        "    return derived_stream('scenario/fuzz/run-0').random()\n",
        extra_sources=[(
            "src/repro/scenario/mut.py",
            "from repro.sim.rng import derived_stream\n"
            "def site_b():\n"
            "    return derived_stream('scenario/fuzz/run-0')"
            ".random()\n",
        )],
    )
    assert "FLOW602" in codes(report)


def test_real_scenario_sources_do_not_collide_with_harnesses():
    # Digest-keyed engine streams and the ``scenario/fuzz/run-<i>``
    # generator keys must stay disjoint from the lint/obs workload
    # namespaces they share a process with.
    from pathlib import Path

    paths = (
        "src/repro/scenario/engine.py",
        "src/repro/scenario/fuzz.py",
        "src/repro/lint/determinism.py",
        "src/repro/obs/scenarios.py",
    )
    report = analyze_sources(
        [(path, Path(path).read_text()) for path in paths]
    )
    assert "FLOW602" not in codes(report)


# --- FLOW603: tainted stream key ------------------------------------

def test_wallclock_in_stream_key_fires_flow603():
    report = analyze_job(
        "import time\n"
        "def component():\n"
        "    return derived_stream(f'run-{time.time()}').random()\n"
    )
    assert "FLOW603" in codes(report)


def test_spec_pure_formatted_key_is_clean():
    report = analyze_job(
        "def component(cell):\n"
        "    return derived_stream(f'cell-{cell}').random()\n"
    )
    assert "FLOW603" not in codes(report)


# --- Suppressions apply to flow findings ----------------------------

def test_suppression_with_justification_silences_finding():
    pragma = "  # simlint: disable=stream-key-collision (test fixture)\n"
    report = analyze_job(
        "def component_a():\n"
        "    return derived_stream('shared.key').random()" + pragma
        + "def component_b():\n"
        "    return derived_stream('shared.key').random()" + pragma
    )
    assert "FLOW602" not in codes(report)
    assert report.suppressed == 2
