"""Cross-tool registry invariants, grown with each new tool.

Three tools share one rule registry; these tests make the code
bands structural (no future rule can silently collide) and make every
CLI list every rule.
"""

import re

from repro.lint import registry

#: tool -> band regex. The bands are the public contract: SIM1xx
#: lint, SAN2xx sanitize, MC3xx modelcheck.
BANDS = {
    "lint": re.compile(r"^SIM1\d\d$"),
    "sanitize": re.compile(r"^SAN2\d\d$"),
    "modelcheck": re.compile(r"^MC3\d\d$"),
}


class TestBands:
    def test_every_tool_has_entries(self):
        tools = {entry.tool for entry in registry.all_entries()}
        assert tools == set(BANDS)

    def test_every_code_sits_in_its_tools_band(self):
        for entry in registry.all_entries():
            assert BANDS[entry.tool].match(entry.code), (
                f"{entry.code} is outside the {entry.tool} band"
            )

    def test_bands_never_overlap(self):
        # The numeric prefixes are pairwise distinct, so two tools
        # cannot mint the same code even in principle; and the
        # concrete registry has no duplicates today.
        codes = [entry.code for entry in registry.all_entries()]
        assert len(codes) == len(set(codes))
        numeric_prefixes = [code[:-2] for code in codes]
        by_tool = {}
        for entry in registry.all_entries():
            by_tool.setdefault(entry.tool, set()).add(entry.code[:-2])
        seen = {}
        for tool, prefixes in by_tool.items():
            for prefix in prefixes:
                assert prefix not in seen, (
                    f"{tool} and {seen[prefix]} share prefix {prefix}"
                )
                seen[prefix] = tool
        assert len(numeric_prefixes) >= len(seen)


class TestEveryCliListsEveryRule:
    def test_three_clis_print_identical_registry(self, capsys):
        from repro.lint.cli import main as lint_main
        from repro.modelcheck.cli import main as mc_main
        from repro.sanitize.cli import main as san_main

        outputs = set()
        for main in (lint_main, san_main, mc_main):
            assert main(["--list-rules"]) == 0
            outputs.add(capsys.readouterr().out)
        assert len(outputs) == 1

        output = outputs.pop()
        for entry in registry.all_entries():
            assert entry.code in output, (
                f"--list-rules is missing {entry.code}"
            )
