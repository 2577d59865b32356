"""Tier-1 gate: the repo's own source must satisfy its determinism
contract.

``test_src_tree_is_clean`` is the enforcement point — any future PR
that reintroduces an unseeded RNG, a wall-clock read, a discarded
event handle (etc.) anywhere under ``src/`` fails here, with the
linter's own report as the assertion message.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from repro.lint.engine import lint_paths
from repro.lint.registry import get_static_rules
from repro.lint.report import render_text

REPO_ROOT = Path(__file__).resolve().parents[1]
SRC = REPO_ROOT / "src"


def run_cli(args, cwd=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return subprocess.run(
        [sys.executable, "-m", "repro.lint", "--no-cache", *args],
        cwd=cwd or REPO_ROOT, env=env,
        capture_output=True, text=True,
    )


class TestTreeIsClean:
    def test_src_tree_is_clean(self):
        # The full static contract: SIM1xx plus the MC30x spec rules.
        findings = lint_paths([str(SRC)], rules=get_static_rules())
        assert findings == [], "\n" + render_text(findings)

    def test_cli_exits_zero_on_clean_tree(self):
        result = run_cli(["src"])
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout


class TestSeededViolationsAreCaught:
    def test_unseeded_default_rng_reintroduced(self, tmp_path):
        bad = tmp_path / "src" / "repro" / "core" / "bad_alloc.py"
        bad.parent.mkdir(parents=True)
        bad.write_text(
            "import numpy as np\n\n\n"
            "def pick():\n"
            "    rng = np.random.default_rng()\n"
            "    return rng.integers(0, 10)\n"
        )
        findings = lint_paths([str(tmp_path)])
        assert [f.rule for f in findings] == ["unseeded-rng"]
        assert findings[0].line == 5

    def test_cli_exits_nonzero_with_readable_report(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import numpy as np\n"
                       "r = np.random.default_rng()\n")
        result = run_cli([str(bad)])
        assert result.returncode == 1
        assert "SIM101" in result.stdout
        assert "unseeded-rng" in result.stdout
        assert f"{bad}:2:" in result.stdout

    def test_cli_json_format(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("t = __import__('time').time\n"
                       "key = hash('x')\n")
        result = run_cli([str(bad), "--format", "json"])
        assert result.returncode == 1
        data = json.loads(result.stdout)
        assert data["count"] == len(data["findings"]) >= 1

    def test_cli_missing_path_is_usage_error(self):
        result = run_cli(["definitely/not/a/path"])
        assert result.returncode == 2

    def test_cli_list_rules(self):
        result = run_cli(["--list-rules"])
        assert result.returncode == 0
        # The unified registry: static SIM and MC rules plus the
        # runtime-only SAN2xx / MC31x codes.
        for code in ("SIM101", "SIM105", "SIM110",
                     "MC301", "MC311", "SAN204"):
            assert code in result.stdout


class TestSanitizeBridge:
    def test_lint_cli_sanitize_merges_clean(self):
        result = run_cli(["src", "--sanitize"])
        assert result.returncode == 0, result.stdout + result.stderr
        assert "clean" in result.stdout

    def test_lint_cli_sanitize_json_schema(self):
        result = run_cli(["src", "--sanitize", "--format", "json"])
        assert result.returncode == 0, result.stdout + result.stderr
        data = json.loads(result.stdout)
        assert data == {"count": 0, "findings": []}


class TestReproCliIntegration:
    def test_repro_cli_lint_subcommand(self, tmp_path):
        from repro.cli import main

        cache = str(tmp_path / "lint-cache.json")
        assert main(["lint", "src", "--cache-file", cache]) == 0

    def test_repro_cli_lint_sanitize_passthrough(self, tmp_path):
        from repro.cli import main

        cache = str(tmp_path / "lint-cache.json")
        assert main(["lint", "src", "--sanitize",
                     "--cache-file", cache]) == 0

    def test_repro_cli_lint_select(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("key = hash('x')\n")
        cache = str(tmp_path / "lint-cache.json")
        assert main(["lint", str(bad), "--select", "builtin-hash",
                     "--cache-file", cache]) == 1
        out = capsys.readouterr().out
        assert "builtin-hash" in out
