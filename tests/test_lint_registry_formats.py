"""The shared registry and the unified CLI surface.

One registry enumerates every check across repro.lint (SIM1xx),
repro.sanitize (SAN2xx) and repro.modelcheck (MC30x static, MC31x
runtime); the three CLIs share the 0/1/2 exit-code contract and all
speak ``--format github`` (that they print one ``--list-rules``
output is pinned in ``test_lint_registry_bands.py``).
"""

import pytest

from repro.lint import registry


class TestRegistry:
    def test_every_code_space_is_present(self):
        codes = {entry.code for entry in registry.all_entries()}
        assert {"SIM101", "SIM114", "SIM115", "SIM116", "MC301",
                "MC304", "MC311", "MC312", "SAN204",
                "SAN231"} <= codes

    def test_codes_are_unique_and_sorted(self):
        entries = registry.all_entries()
        codes = [entry.code for entry in entries]
        assert codes == sorted(codes)
        assert len(codes) == len(set(codes))

    def test_every_entry_is_described(self):
        for entry in registry.all_entries():
            assert entry.description, entry.code
            assert entry.kind in ("static", "runtime")
            assert entry.tool in ("lint", "sanitize", "modelcheck")

    def test_static_rules_include_mc_spec_rules(self):
        names = {rule.name for rule in registry.static_rules()}
        assert "unseeded-rng" in names
        assert "spec-handler-missing" in names

    def test_get_static_rules_rejects_unknown(self):
        with pytest.raises(ValueError, match="unknown rule"):
            registry.get_static_rules(select=["no-such-rule"])


class TestGithubFormat:
    def test_lint_annotations(self, tmp_path, capsys):
        from repro.lint.cli import main

        bad = tmp_path / "bad.py"
        bad.write_text("key = hash('x')\n")
        assert main([str(bad), "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert out.startswith("::error file=")
        assert f"file={bad},line=1" in out
        assert "SIM110" in out

    def test_clean_tree_produces_no_annotations(self, tmp_path, capsys):
        from repro.lint.cli import main

        good = tmp_path / "good.py"
        good.write_text("VALUE = 3\n")
        assert main([str(good), "--format", "github"]) == 0
        assert capsys.readouterr().out == ""

    def test_modelcheck_annotations_use_pseudo_path(self, capsys):
        from repro.modelcheck.cli import main

        assert main(["smoke", "--mutation", "defend-off-by-one",
                     "--format", "github"]) == 1
        out = capsys.readouterr().out
        assert "::error title=MC312::" in out
        assert "<modelcheck:smoke+defend-off-by-one>" in out

    def test_sanitize_github_clean(self, capsys):
        from repro.sanitize.cli import main

        assert main(["kernel", "--format", "github"]) == 0
        assert capsys.readouterr().out == ""


class TestExitCodeContract:
    def test_constants(self):
        assert (registry.EXIT_CLEAN, registry.EXIT_FINDINGS,
                registry.EXIT_USAGE) == (0, 1, 2)

    def test_lint_usage_error(self, capsys):
        from repro.lint.cli import main

        assert main(["--select", "no-such-rule"]) == 2
        capsys.readouterr()

    def test_modelcheck_usage_error(self, capsys):
        from repro.modelcheck.cli import main

        assert main(["no-such-scenario"]) == 2
        capsys.readouterr()

    def test_sanitize_usage_error(self, capsys):
        from repro.sanitize.cli import main

        assert main(["no-such-scenario"]) == 2
        capsys.readouterr()

    def test_modelcheck_clean_exit(self, capsys):
        from repro.modelcheck.cli import main

        assert main(["smoke"]) == 0
        capsys.readouterr()

    def test_modelcheck_truncation_is_a_failure(self, capsys):
        from repro.modelcheck.cli import main

        assert main(["smoke", "--max-states", "5"]) == 1
        out = capsys.readouterr().out
        assert "TRUNCATED" in out
