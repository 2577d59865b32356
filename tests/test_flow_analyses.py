"""Seeded-defect tests: each analysis must catch its mutation.

Every test has the same shape as the modelcheck mutation suite: a
*clean twin* that passes, and one injected defect that must produce
exactly the expected FLOW code.  This is the evidence the analyses
detect what they claim to detect, not merely that ``src/`` happens
to be quiet.
"""

from repro.flow.analysis import analyze_sources

JOBS_PATH = "src/repro/fleet/jobs.py"

REGISTER = (
    "import numpy as np\n"
    "from repro.sim.rng import derived_stream\n"
    "def register(name):\n"
    "    def deco(fn):\n"
    "        return fn\n"
    "    return deco\n"
)


def codes(report):
    return sorted({f.code for f in report.findings})


def analyze_job(body, extra_sources=()):
    text = REGISTER + body
    return analyze_sources([(JOBS_PATH, text), *extra_sources])


# --- FLOW601: untraced draw on a job path ---------------------------

def test_untraced_draw_in_job_fires_flow601():
    report = analyze_job(
        "@register('mut')\n"
        "def mut(params, rng, attempt):\n"
        "    wild = np.random.default_rng()\n"
        "    return {'x': wild.random()}\n"
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


def test_shard_stream_draw_is_clean():
    report = analyze_job(
        "@register('ok')\n"
        "def ok(params, rng, attempt):\n"
        "    return {'x': float(rng.random())}\n"
    )
    assert codes(report) == []


def test_seeded_generator_is_clean():
    report = analyze_job(
        "@register('ok')\n"
        "def ok(params, rng, attempt):\n"
        "    local = np.random.default_rng(int(params['seed']))\n"
        "    return {'x': float(local.random())}\n"
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


# --- FLOW604: ambient constant-key stream on a job path -------------

def test_ambient_stream_in_job_fires_flow604():
    report = analyze_job(
        "def helper():\n"
        "    return derived_stream('ambient.const').random()\n"
        "@register('mut')\n"
        "def mut(params, rng, attempt):\n"
        "    return {'x': helper()}\n"
    )
    assert "FLOW604" in codes(report)


def test_ambient_stream_off_job_path_is_clean():
    report = analyze_job(
        "def helper():\n"
        "    return derived_stream('ambient.const').random()\n"
        "@register('ok')\n"
        "def ok(params, rng, attempt):\n"
        "    return {'x': float(rng.random())}\n"
    )
    assert "FLOW604" not in codes(report)


# --- FLOW611: global mutation ---------------------------------------

def test_global_mutation_in_job_fires_flow611():
    report = analyze_job(
        "COUNTER = 0\n"
        "@register('mut')\n"
        "def mut(params, rng, attempt):\n"
        "    global COUNTER\n"
        "    COUNTER += 1\n"
        "    return {'n': COUNTER}\n"
    )
    assert "FLOW611" in codes(report)


def test_module_container_mutation_in_job_fires_flow611():
    report = analyze_job(
        "SEEN = []\n"
        "@register('mut')\n"
        "def mut(params, rng, attempt):\n"
        "    SEEN.append(params)\n"
        "    return {}\n"
    )
    assert "FLOW611" in codes(report)


# --- FLOW612 / FLOW613: wall clock and I/O --------------------------

def test_wallclock_read_in_job_fires_flow612():
    report = analyze_job(
        "import time\n"
        "@register('mut')\n"
        "def mut(params, rng, attempt):\n"
        "    return {'t': time.time()}\n"
    )
    assert "FLOW612" in codes(report)


def test_wallclock_reached_through_helper_fires_flow612():
    report = analyze_job(
        "import time\n"
        "def helper():\n"
        "    return time.monotonic()\n"
        "@register('mut')\n"
        "def mut(params, rng, attempt):\n"
        "    return {'t': helper()}\n"
    )
    assert "FLOW612" in codes(report)


def test_file_io_in_job_fires_flow613():
    report = analyze_job(
        "@register('mut')\n"
        "def mut(params, rng, attempt):\n"
        "    with open('/tmp/out.txt', 'w') as fh:\n"
        "        fh.write('x')\n"
        "    return {}\n"
    )
    assert "FLOW613" in codes(report)


def test_pure_job_is_clean():
    report = analyze_job(
        "@register('ok')\n"
        "def ok(params, rng, attempt):\n"
        "    total = 0\n"
        "    for step in range(int(params.get('n', 10))):\n"
        "        total += int(rng.integers(0, 7))\n"
        "    return {'total': total}\n"
    )
    assert codes(report) == []


# --- FLOW614: mutation through captured state -----------------------

def test_captured_mutable_write_fires_flow614():
    report = analyze_job(
        "@register('mut')\n"
        "def mut(params, rng, attempt):\n"
        "    acc = []\n"
        "    def leak():\n"
        "        acc.append(1)\n"
        "    leak()\n"
        "    return {'n': len(acc)}\n"
    )
    assert "FLOW614" in codes(report)


# --- Suppressions apply to flow findings ----------------------------

def test_suppression_with_justification_silences_finding():
    report = analyze_job(
        "import time\n"
        "@register('mut')\n"
        "def mut(params, rng, attempt):\n"
        "    return {'t': time.time()}"
        "  # simlint: disable=job-reads-wallclock (test fixture)\n"
    )
    assert "FLOW612" not in codes(report)
    assert report.suppressed >= 1
