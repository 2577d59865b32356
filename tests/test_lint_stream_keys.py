"""RNG provenance: every draw comes from a keyed stream or a seeded
generator, and stream keys neither collide nor change between runs.

Three rules hold the §7 contract between them: SIM101 flags an
unseeded or process-global numpy generator anywhere in the tree,
SIM115 a stream key built from a value that differs between runs, and
SIM116 two call sites deriving the same constant key.  A stream is
named by ``streams.get(key)`` on a ``RandomStreams``.  SIM116 compares
sites across files, so these tests lint several sources as one tree.
Each detection case has a clean twin.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint.engine import lint_paths, lint_sources
from repro.lint.registry import get_static_rules

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"

#: A ``repro.cli`` command: top-level package code.
CLI_PATH = "src/repro/cli.py"

PRELUDE = (
    "import numpy as np\n"
    "from repro.sim.rng import RandomStreams\n"
)

#: The rules that took over from the retired whole-program analysis.
RNG_RULES = ("unseeded-rng", "tainted-stream-key", "stream-key-collision")


def codes(findings):
    return sorted({f.code for f in findings})


def lint_cli(body, extra_sources=()):
    return lint_sources([(CLI_PATH, PRELUDE + body), *extra_sources])


def real(path):
    return path, (REPO_ROOT / path).read_text(encoding="utf-8")


def key_line(path, key):
    """The line of the one call in ``path`` whose first argument is the
    string ``key``: where SIM116 reports a collision of that key."""
    tree = ast.parse((REPO_ROOT / path).read_text(encoding="utf-8"))
    lines = [node.lineno for node in ast.walk(tree)
             if isinstance(node, ast.Call) and node.args
             and isinstance(node.args[0], ast.Constant)
             and node.args[0].value == key]
    assert len(lines) == 1, (path, key, lines)
    return lines[0]


def run_cli(args):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", *args],
        capture_output=True, text=True, env=env, cwd=str(REPO_ROOT),
    )


# --- SIM101: untraced draws, in every package -----------------------

def test_untraced_draw_in_cli_command_fires_sim101():
    findings = lint_cli(
        "def cmd_mut(args):\n"
        "    wild = np.random.default_rng()\n"
        "    return wild.random()\n"
    )
    assert codes(findings) == ["SIM101"]


def test_untraced_draw_under_a_tool_cli_fires_sim101():
    findings = lint_sources([(
        "src/repro/lint/cli.py",
        "import numpy as np\n"
        "def main(argv=None):\n"
        "    wild = np.random.default_rng()\n"
        "    return int(wild.integers(2))\n",
    )])
    assert codes(findings) == ["SIM101"]


def test_injected_rng_draw_is_clean():
    findings = lint_cli(
        "def cmd_ok(args, rng):\n"
        "    return float(rng.random())\n"
    )
    assert codes(findings) == []


def test_seeded_generator_is_clean():
    findings = lint_cli(
        "def cmd_ok(args):\n"
        "    local = np.random.default_rng(int(args.seed))\n"
        "    return float(local.random())\n"
    )
    assert codes(findings) == []


# --- SIM116: stream-key collision -----------------------------------

def test_stream_key_collision_fires_sim116():
    findings = lint_cli(
        "def component_a(streams):\n"
        "    return streams.get('shared.key').random()\n"
        "def component_b(streams):\n"
        "    return streams.get('shared.key').random()\n"
    )
    assert [(f.code, f.line) for f in findings] == [
        ("SIM116", 4), ("SIM116", 6)]
    assert "src/repro/cli.py:6" in findings[0].message


def test_distinct_stream_keys_are_clean():
    findings = lint_cli(
        "def component_a(streams):\n"
        "    return streams.get('mod.a').random()\n"
        "def component_b(streams):\n"
        "    return streams.get('mod.b').random()\n"
    )
    assert codes(findings) == []


def test_scenario_fuzz_key_reused_cross_site_fires_sim116():
    findings = lint_cli(
        "def site_a(streams):\n"
        "    return streams.get('scenario/fuzz/run-0').random()\n",
        extra_sources=[(
            "src/repro/scenario/mut.py",
            "def site_b(streams):\n"
            "    return streams.get('scenario/fuzz/run-0')"
            ".random()\n",
        )],
    )
    assert [(f.path, f.code) for f in findings] == [
        (CLI_PATH, "SIM116"), ("src/repro/scenario/mut.py", "SIM116")]


def test_harnesses_sharing_a_workload_key_fire_sim116():
    # The bug this check has caught: two harnesses both drew from
    # ``streams.get("workload")``, so their workloads were the same.
    sources = []
    for path, old in (("src/repro/lint/determinism.py", "lint.workload"),
                      ("src/repro/obs/scenarios.py", "obs.workload")):
        path, text = real(path)
        assert f'streams.get("{old}")' in text
        sources.append((path, text.replace(f'"{old}"', '"workload"')))
    findings = lint_sources(
        sources, rules=get_static_rules(select=["stream-key-collision"]))
    assert [(f.path, f.line) for f in findings] == [
        ("src/repro/lint/determinism.py",
         key_line("src/repro/lint/determinism.py", "lint.workload")),
        ("src/repro/obs/scenarios.py",
         key_line("src/repro/obs/scenarios.py", "obs.workload")),
    ]


# --- SIM115: tainted stream key -------------------------------------

def test_wallclock_in_stream_key_fires_sim115():
    findings = lint_cli(
        "import time\n"
        "def component(streams):\n"
        "    return streams.get(f'run-{time.time()}').random()\n"
    )
    assert codes(findings) == ["SIM115"]


@pytest.mark.parametrize("imports, key", [
    ("from time import monotonic", "f'run-{monotonic()}'"),
    ("import os", "f'run-{os.getpid()}'"),
    ("import os", "'run-' + os.environ['USER']"),
    ("import uuid", "f'run-{uuid.uuid4()}'"),
    ("", "f'run-{id(args)}'"),
    ("", "f'run-{hash(args)}'"),
], ids=["clock", "pid", "environment", "uuid", "id", "hash"])
def test_every_tainted_source_fires_sim115(imports, key):
    findings = lint_cli(
        f"{imports}\n"
        f"def component(args, streams):\n"
        f"    return streams.get({key}).random()\n"
    )
    assert "SIM115" in codes(findings)


def test_spec_pure_formatted_key_is_clean():
    findings = lint_cli(
        "def component(cell, streams):\n"
        "    return streams.get(f'cell-{cell}').random()\n"
    )
    assert codes(findings) == []


# --- Suppressions ----------------------------------------------------

def test_suppression_with_justification_silences_finding():
    pragma = "  # simlint: disable=stream-key-collision (test fixture)\n"
    body = (
        "def component_a(streams):\n"
        "    return streams.get('shared.key').random()" + pragma
        + "def component_b(streams):\n"
        "    return streams.get('shared.key').random()" + pragma
    )
    assert codes(lint_cli(body)) == []
    unsuppressed = lint_cli(body.replace("simlint:", "no-lint:"))
    assert len(unsuppressed) == 2


def test_src_has_no_rng_suppressions():
    # No suppression of the RNG rules is sanctioned: with every
    # ``# simlint:`` directive in src/ disarmed, they still find nothing.
    sources = [
        (str(path), path.read_text(encoding="utf-8")
         .replace("simlint:", "no-lint:"))
        for path in sorted(SRC.rglob("*.py"))
    ]
    findings = lint_sources(sources,
                            rules=get_static_rules(select=list(RNG_RULES)))
    assert findings == [], "\n".join(f.format() for f in findings)


def test_every_rng_suppression_has_a_justification():
    """``# simlint: disable=<rng rule>`` must carry a reason in a
    trailing parenthesized comment segment."""
    pattern = re.compile(
        r"#\s*simlint:\s*disable(?:-file)?\s*=\s*([A-Za-z0-9_\-, ]+)"
    )
    offenders = []
    for path in SRC.rglob("*.py"):
        for lineno, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            match = pattern.search(line)
            if not match:
                continue
            names = {n.strip() for n in match.group(1).split(",")}
            if names.isdisjoint(RNG_RULES):
                continue
            if not re.search(r"\(.{8,}\)", line[match.end():]):
                offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert not offenders, (
        "RNG-rule suppressions without a justification:\n"
        + "\n".join(offenders)
    )


# --- The CLI runs SIM116 over every path it is given -----------------

def test_cli_selects_and_ignores_the_tree_rule(tmp_path):
    for name in ("a.py", "b.py"):
        (tmp_path / name).write_text(
            "from repro.sim.rng import RandomStreams\n"
            "streams = RandomStreams(0)\n"
            "rng = streams.get('shared.key')\n"
        )
    selected = run_cli([str(tmp_path), "--select",
                        "stream-key-collision"])
    assert selected.returncode == 1, selected.stdout + selected.stderr
    assert selected.stdout.count("SIM116 [stream-key-collision]") == 2
    ignored = run_cli([str(tmp_path), "--ignore",
                       "stream-key-collision"])
    assert ignored.returncode == 0, ignored.stdout + ignored.stderr
    # A path named twice is one file, not two colliding sites.
    twice = str(tmp_path / "a.py")
    assert lint_paths([twice, twice]) == []
