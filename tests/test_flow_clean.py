"""Tier-1 gate: the repo's own source must pass the flow analyses.

Mirrors ``test_lint_clean.py``: any future PR that lets an untraced
draw, a colliding stream key or a tainted one into ``src/``
fails here with the analyzer's own report as the message.  Also the
enforcement point for the CLI contract (exit codes, ``--list-rules``
across all six tools, the cache) and for the rule that every flow
suppression carries a justification.
"""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.flow.analysis import analyze_paths
from repro.flow.rules import FLOW_RULE_NAMES

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def run_cli(module, args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", module, *args],
        capture_output=True, text=True, env=env,
        cwd=cwd or str(REPO_ROOT),
    )


@pytest.fixture(scope="module")
def src_report():
    return analyze_paths([str(SRC)], use_cache=False)


def test_src_tree_is_flow_clean(src_report):
    lines = "\n".join(f.format() for f in src_report.findings)
    assert not src_report.findings, f"flow findings in src/:\n{lines}"


def test_src_suppressions_are_few_and_counted(src_report):
    # No suppression is sanctioned; a creeping count means someone is
    # silencing the analyzer instead of fixing the code.
    assert src_report.suppressed == 0


def test_every_flow_suppression_has_a_justification():
    """``# simlint: disable=<flow-rule>`` must carry a reason in a
    trailing parenthesized comment segment."""
    flow_names = set(FLOW_RULE_NAMES)
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
            if not names & flow_names:
                continue
            justification = line[match.end():].strip()
            if not re.search(r"\(.{8,}\)", justification):
                offenders.append(f"{path}:{lineno}: {line.strip()}")
    assert not offenders, (
        "flow suppressions without a justification:\n"
        + "\n".join(offenders)
    )


def test_cli_exit_codes_and_formats():
    clean = run_cli("repro.flow", ["src", "--no-cache"])
    assert clean.returncode == 0, clean.stdout + clean.stderr

    usage = run_cli("repro.flow", ["no/such/dir", "--no-cache"])
    assert usage.returncode == 2

    bad_rule = run_cli("repro.flow",
                       ["src", "--select", "nope", "--no-cache"])
    assert bad_rule.returncode == 2

    as_json = run_cli("repro.flow",
                      ["src", "--format", "json", "--no-cache"])
    assert as_json.returncode == 0
    payload = json.loads(as_json.stdout)
    assert payload["count"] == 0

    github = run_cli("repro.flow",
                     ["src", "--format", "github", "--no-cache"])
    assert github.returncode == 0
    assert github.stdout == ""


def test_all_six_clis_list_flow_rules():
    for module in ("repro.lint", "repro.sanitize", "repro.modelcheck",
                   "repro.obs", "repro.flow", "repro.scenario"):
        args = ["--list-rules"]
        if module == "repro.lint":
            args.insert(0, "--no-cache")
        result = run_cli(module, args)
        assert result.returncode == 0, (module, result.stderr)
        for code in ("FLOW601", "FLOW603"):
            assert code in result.stdout, (
                f"{module} --list-rules is missing {code}"
            )
        assert "SIM101" in result.stdout or "SIM1" in result.stdout


def test_umbrella_cli_flow_subcommand():
    result = run_cli("repro", ["flow", "src", "--no-cache"])
    assert result.returncode == 0, result.stdout + result.stderr
    assert "repro-flow: clean" in result.stdout


def test_whole_tree_cache_hits_and_invalidates(tmp_path):
    cache_file = tmp_path / "flow-cache.json"
    first = analyze_paths([str(SRC)], use_cache=True,
                          cache_file=str(cache_file))
    assert not first.from_cache
    second = analyze_paths([str(SRC)], use_cache=True,
                           cache_file=str(cache_file))
    assert second.from_cache
    assert [f.to_dict() for f in second.findings] == \
        [f.to_dict() for f in first.findings]

    # Any content change anywhere invalidates the whole-tree entry.
    document = json.loads(cache_file.read_text())
    document["tree"] = "0" * 64
    cache_file.write_text(json.dumps(document))
    third = analyze_paths([str(SRC)], use_cache=True,
                          cache_file=str(cache_file))
    assert not third.from_cache
