"""Tier-1 gate: ``src/`` is ALIAS-clean and the SoA ledger holds.

Pins the repo's own escape/aliasing state: zero hard ALIAS8xx
findings with zero suppressions, every class in ``core/`` and
``sim/`` classified by the ledger and *all* of them SoA-safe, and
the CLI contract (exit codes, formats, ``--ledger-out``, the
umbrella subcommand, the whole-tree cache).  Also the satellite
proof that the defensive-copy idiom the analysis enforces actually
protects internal state: mutating a returned view must not touch
the owning object.
"""

from __future__ import annotations

import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from repro.alias.analysis import analyze_paths

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"


def run_cli(*args: str, cwd: Path = REPO) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return subprocess.run(
        [sys.executable, "-m", "repro.alias", *args],
        capture_output=True, text=True, cwd=cwd, env=env,
    )


@pytest.fixture(scope="module")
def src_report():
    return analyze_paths([str(SRC)], use_cache=False)


# --------------------------------------------------------------------
# The clean pin.
# --------------------------------------------------------------------

def test_src_has_no_hard_alias_findings(src_report):
    assert src_report.findings == [], (
        "hard ALIAS findings in src/:\n" + "\n".join(
            f"{f.path}:{f.line} {f.code} {f.message}"
            for f in src_report.findings))


def test_src_needs_no_suppressions(src_report):
    assert src_report.suppressed == 0


def test_src_advisory_is_boundary_and_cost_only(src_report):
    """Only the soundness boundary (813) and hot-copy cost notes
    (814) remain — no identity reliance, no global escapes, no
    blocked classes."""
    codes = {f.code for f in src_report.advisory}
    assert codes <= {"ALIAS813", "ALIAS814"}, sorted(codes)
    assert any(f.code == "ALIAS814" for f in src_report.advisory), (
        "the hot-defensive-copy survey went silent; the SoA "
        "migration cost signal is gone")


def test_stats_show_whole_program_coverage(src_report):
    stats = src_report.stats
    assert stats["functions"] >= 1000
    assert stats["classes"] >= 150
    assert stats["migrating_classes"] >= 50
    assert stats["modules"] >= 120
    assert stats["leaking_methods"] == 0
    assert (stats["escape_local"] + stats["escape_module"]
            + stats["escape_global"]) == stats["classes"]


# --------------------------------------------------------------------
# The ledger: exhaustive over core/+sim/, all SoA-safe (acceptance
# floor: at least 10 safe classes).
# --------------------------------------------------------------------

def test_every_core_sim_class_is_classified(src_report):
    import ast
    in_ledger = {e["qualname"] for e in src_report.ledger["entries"]}
    missing = []
    for pkg in ("core", "sim"):
        for path in sorted((SRC / "repro" / pkg).rglob("*.py")):
            module = ".".join(
                path.relative_to(SRC).with_suffix("").parts)
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    qualname = f"{module}.{node.name}"
                    if qualname not in in_ledger:
                        missing.append(qualname)
    assert not missing, f"classes absent from the ledger: {missing}"


def test_ledger_verdicts_all_safe_and_pinned(src_report):
    summary = src_report.ledger["summary"]
    assert summary["soa_blocked"] == 0
    assert summary["soa_safe"] == summary["total"]
    assert summary["core_sim_safe"] == summary["core_sim_total"]
    assert summary["core_sim_safe"] >= 10          # acceptance floor
    assert summary["total"] >= 50
    for entry in src_report.ledger["entries"]:
        assert entry["verdict"] == "soa-safe", entry["qualname"]
        assert entry["blocking_rules"] == [], entry["qualname"]


def test_session_cache_ledger_entry(src_report):
    """The README walkthrough's example entry, kept honest."""
    entries = {e["qualname"]: e
               for e in src_report.ledger["entries"]}
    cache = entries["repro.sap.cache.SessionCache"]
    assert cache["verdict"] == "soa-safe"
    assert cache["escape"] == "module"
    assert cache["container_attrs"] == {"_by_address": "dict",
                                        "_by_session": "dict",
                                        "_entries": "dict",
                                        "_row_keys": "list",
                                        "_row_of": "dict"}
    assert cache["hot"]["sites"] > 0, (
        "SessionCache fell off the flow hot-path join")


# --------------------------------------------------------------------
# Satellite: the enforced copy idiom actually isolates state.
# --------------------------------------------------------------------

def test_mutating_returned_entries_leaves_cache_intact():
    from repro.sap.cache import SessionCache
    cache = SessionCache()
    cache._entries[(1, 2)] = "sentinel"
    view = cache.entries()
    view.clear()
    view.append("junk")
    assert len(cache) == 1
    assert cache.lookup(1, 2) == "sentinel"


def test_mutating_same_address_result_leaves_index_intact():
    from repro.core.clash import AddressUsageIndex
    from repro.core.session import Session
    index = AddressUsageIndex()
    session = Session(address=5, ttl=15, source=1)
    index.add(session)
    bucket = index.same_address(5)
    bucket.clear()
    assert len(index) == 1
    assert index.same_address(5) == [session]


# --------------------------------------------------------------------
# CLI contract.
# --------------------------------------------------------------------

def test_cli_clean_run_exits_zero():
    proc = run_cli("src", "--no-cache")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro-alias: clean (0 findings)" in proc.stdout
    assert "ledger:" in proc.stdout
    assert "SoA blockers" in proc.stdout


def test_cli_usage_errors_exit_two(tmp_path):
    assert run_cli("no/such/dir").returncode == 2
    assert run_cli("src", "--select", "NOT-A-RULE").returncode == 2


def test_cli_json_format():
    proc = run_cli("src", "--no-cache", "--format", "json")
    assert proc.returncode == 0
    payload = json.loads(proc.stdout)
    assert payload["count"] == 0
    assert payload["suppressed"] == 0
    assert payload["ledger"]["summary"]["soa_blocked"] == 0
    assert payload["stats"]["ledger_core_sim_safe"] >= 10


def test_cli_github_format_is_advisory_only():
    proc = run_cli("src", "--no-cache", "--format", "github")
    assert proc.returncode == 0
    assert "::notice" in proc.stdout
    assert "::error" not in proc.stdout


def test_cli_strict_promotes_advisory():
    proc = run_cli("src", "--no-cache", "--strict")
    assert proc.returncode == 1
    assert "ALIAS81" in proc.stdout


def test_cli_ledger_out_writes_ranked_ledger(tmp_path):
    out = tmp_path / "alias-ledger.json"
    proc = run_cli("src", "--no-cache", "--ledger-out", str(out))
    assert proc.returncode == 0
    ledger = json.loads(out.read_text(encoding="utf-8"))
    assert ledger["summary"]["core_sim_total"] >= 10
    qualnames = [e["qualname"] for e in ledger["entries"]]
    assert "repro.sap.cache.SessionCache" in qualnames


def test_umbrella_subcommand_runs_alias():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "alias", "src", "--no-cache"],
        capture_output=True, text=True, cwd=REPO, env=env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "repro-alias: clean" in proc.stdout


# --------------------------------------------------------------------
# Whole-tree cache: hit on an untouched tree, miss on any edit or a
# tampered digest.
# --------------------------------------------------------------------

def _tiny_tree(tmp_path: Path) -> Path:
    pkg = tmp_path / "repro" / "core"
    pkg.mkdir(parents=True)
    (pkg / "thing.py").write_text(
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self._items = []\n"
        "    def items(self):\n"
        "        return list(self._items)\n",
        encoding="utf-8")
    return tmp_path


def test_cache_hit_and_invalidation(tmp_path):
    tree = _tiny_tree(tmp_path / "tree")
    cache_file = str(tmp_path / ".repro-alias-cache.json")

    first = analyze_paths([str(tree)], cache_file=cache_file)
    assert not first.from_cache
    second = analyze_paths([str(tree)], cache_file=cache_file)
    assert second.from_cache
    assert [f.code for f in second.findings] == []
    assert second.ledger["summary"] == first.ledger["summary"]

    # Any edit anywhere is a miss.
    path = tree / "repro" / "core" / "thing.py"
    path.write_text(path.read_text(encoding="utf-8") + "\n# touch\n",
                    encoding="utf-8")
    third = analyze_paths([str(tree)], cache_file=cache_file)
    assert not third.from_cache

    # A tampered stored digest is a miss, not a stale serve.
    document = json.loads(Path(cache_file).read_text(encoding="utf-8"))
    document["tree"] = "0" * len(document["tree"])
    Path(cache_file).write_text(json.dumps(document), encoding="utf-8")
    fourth = analyze_paths([str(tree)], cache_file=cache_file)
    assert not fourth.from_cache


# --------------------------------------------------------------------
# Suppression hygiene: every ALIAS suppression (there are currently
# none) must carry a written justification.
# --------------------------------------------------------------------

SUPPRESSION = re.compile(
    r"#\s*simlint:\s*disable(?:-file)?\s*=\s*([A-Za-z0-9_\-, ]+)")

ALIAS_RULE_WORDS = {
    "leaked-internal-container", "leaked-container-view",
    "aliased-mutation", "iterator-invalidation",
    "mutation-after-publish", "identity-comparison", "identity-call",
    "identity-hash-key", "global-escape", "soa-blocked",
    "unresolved-alias-call", "hot-defensive-copy",
}


def test_alias_suppressions_carry_justifications():
    offenders = []
    for path in sorted(SRC.rglob("*.py")):
        for i, line in enumerate(
                path.read_text(encoding="utf-8").splitlines(), 1):
            match = SUPPRESSION.search(line)
            if not match:
                continue
            rules = {r.strip() for r in match.group(1).split(",")}
            if not rules & ALIAS_RULE_WORDS:
                continue
            if not re.search(r"\(.{8,}\)", line[match.end():]):
                offenders.append(f"{path}:{i}")
    assert not offenders, (
        "ALIAS suppressions without a justification: "
        f"{offenders}")
