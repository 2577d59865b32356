"""MC301–MC304: extraction semantics and spec cross-checking."""

import ast
from pathlib import Path

from repro.lint.engine import lint_paths, lint_source
from repro.modelcheck.astcheck import MC_RULES, extract_machine

REPO_ROOT = Path(__file__).resolve().parents[1]
FIXTURE = REPO_ROOT / "tests" / "fixtures" / "mc_broken_handler.py"


def _machine(source: str):
    tree = ast.parse(source)
    cls = next(node for node in ast.walk(tree)
               if isinstance(node, ast.ClassDef))
    return extract_machine(cls)


class TestSourceTreeConformsToSpec:
    def test_src_is_clean(self):
        findings = lint_paths([str(REPO_ROOT / "src")], rules=MC_RULES)
        assert findings == [], "\n".join(f.format() for f in findings)


class TestRetreatMustYield:
    def test_retreat_that_defends_is_undeclared(self):
        """Phase 2 yields the address: a copy of the directory whose
        ``retreat`` can hold its claim by defending instead is MC302,
        linted under the real file's path."""
        path = REPO_ROOT / "src" / "repro" / "sap" / "directory.py"
        source = path.read_text(encoding="utf-8")
        doc = ('        """Phase 2: move a just-announced session to a '
               'new address."""\n')
        assert source.count(doc) == 1
        holds = source.replace(doc, doc + (
            "        if own.session.ttl > 127:\n"
            "            self.defend(own)\n"
            "            return\n"
        ))
        findings = lint_source(holds, path=str(path), rules=MC_RULES)
        assert [(f.code, f.message) for f in findings] == [(
            "MC302",
            "SessionDirectory.retreat performs 'defend', not in its "
            "declared allowed set ['allocate', 'send']",
        )]


class TestBrokenFixtureFires:
    def test_all_four_codes_fire(self):
        findings = lint_paths([str(FIXTURE)], rules=MC_RULES)
        codes = {finding.code for finding in findings}
        assert codes == {"MC301", "MC302", "MC303", "MC304"}

    def test_specific_defects_are_named(self):
        messages = "\n".join(
            finding.message
            for finding in lint_paths([str(FIXTURE)], rules=MC_RULES)
        )
        assert "_fire_defence" in messages      # MC301: deleted handler
        assert "'allocate'" in messages         # MC302: foreign effect
        assert "_check_later" in messages       # MC302: foreign timer
        assert "on_timeout" in messages         # MC303: undeclared
        assert "'retreat'" in messages          # MC304: lost branch

    def test_suppressible_like_any_lint_rule(self):
        source = FIXTURE.read_text(encoding="utf-8")
        suppressed = source.replace(
            "class ClashHandler:",
            "class ClashHandler:  "
            "# simlint: disable-file=spec-handler-missing,"
            "undeclared-transition,undeclared-handler,"
            "missing-required-effect",
        )
        assert lint_source(suppressed, path=str(FIXTURE),
                           rules=MC_RULES) == []


class TestExtraction:
    def test_nested_function_effects_propagate(self):
        machine = _machine(
            "class C:\n"
            "    def create(self):\n"
            "        def kick():\n"
            "            self.network.send(1)\n"
            "        kick()\n"
        )
        assert machine["create"].effects == {"send"}

    def test_schedule_target_from_bound_method(self):
        machine = _machine(
            "class C:\n"
            "    def start(self):\n"
            "        self._pending = self.scheduler.schedule(\n"
            "            self.interval, self._fire)\n"
        )
        assert machine["start"].effects == {"schedule"}
        # self.interval is the delay, never the callback target.
        assert machine["start"].schedules == {"_fire"}

    def test_schedule_target_from_lambda_with_default(self):
        machine = _machine(
            "class C:\n"
            "    def send(self, node):\n"
            "        self.scheduler.schedule(\n"
            "            self.delay,\n"
            "            lambda n=node: self._deliver(n, 1))\n"
        )
        assert machine["send"].schedules == {"_deliver"}

    def test_lambda_body_excluded_from_direct_effects(self):
        machine = _machine(
            "class C:\n"
            "    def arm(self, key):\n"
            "        self.scheduler.schedule(\n"
            "            2.0, lambda: self.directory.retreat(key))\n"
        )
        # The deferred retreat is a *scheduled* transition, not a
        # direct effect of arming the timer.
        assert machine["arm"].effects == {"schedule"}
        assert machine["arm"].schedules == {"retreat"}

    def test_transitive_closure_over_self_calls(self):
        machine = _machine(
            "class C:\n"
            "    def on_announcement(self, entry):\n"
            "        self._react(entry)\n"
            "    def _react(self, entry):\n"
            "        self.directory.retreat(entry)\n"
        )
        assert machine["on_announcement"].effects == {"retreat"}

    def test_receiver_agnostic_classification(self):
        machine = _machine(
            "class C:\n"
            "    def a(self):\n"
            "        self.directory.defend(1)\n"
            "    def b(self, directory):\n"
            "        directory.defend(1)\n"
        )
        assert machine["a"].effects == {"defend"}
        assert machine["b"].effects == {"defend"}
