"""Unit tests for the simlint rule set, suppressions and reporters."""

import json

import pytest

from repro.lint.engine import (
    Finding,
    lint_source,
    package_of,
    parse_suppressions,
)
from repro.lint.registry import get_static_rules
from repro.lint.report import render_json, render_text
from repro.lint.rules import ALL_RULES, SIM_PACKAGES


def names(code, package="sim"):
    """Rule names found in a snippet linted as repro.<package> code."""
    return [f.rule for f in lint_source(code, package=package)]


class TestUnseededRng:
    def test_unseeded_default_rng_flagged(self):
        assert "unseeded-rng" in names(
            "import numpy as np\nr = np.random.default_rng()\n"
        )

    def test_seeded_default_rng_clean(self):
        assert names(
            "import numpy as np\nr = np.random.default_rng(42)\n"
        ) == []

    def test_seed_sequence_argument_clean(self):
        assert names(
            "import numpy as np\n"
            "r = np.random.default_rng(np.random.SeedSequence(1))\n"
        ) == []

    def test_legacy_global_rng_flagged(self):
        code = "import numpy as np\nnp.random.seed(3)\n"
        assert "unseeded-rng" in names(code)

    def test_legacy_global_draw_flagged(self):
        code = "import numpy as np\nx = np.random.uniform(0, 1)\n"
        assert "unseeded-rng" in names(code)

    def test_from_import_alias_flagged(self):
        code = ("from numpy.random import default_rng\n"
                "r = default_rng()\n")
        assert "unseeded-rng" in names(code)

    @pytest.mark.parametrize("module, imports", [
        ("npr", "import numpy.random as npr"),
        ("nr", "from numpy import random as nr"),
        ("xp.random", "import numpy as xp"),
    ], ids=["numpy-random-as", "from-numpy-import-random-as",
            "numpy-as"])
    def test_numpy_import_alias_flagged(self, module, imports):
        # Both branches: the unseeded constructor and a legacy call.
        code = (f"{imports}\n"
                f"r = {module}.default_rng()\n"
                f"{module}.shuffle(items)\n")
        assert names(code) == ["unseeded-rng", "unseeded-rng"]

    def test_applies_outside_sim_scope(self):
        # Every generator a draw can use is built somewhere in src/,
        # so the rule has no package scope.
        code = "import numpy as np\nr = np.random.default_rng()\n"
        assert names(code, package="analysis") == ["unseeded-rng"]


class TestBareRandom:
    def test_import_random_flagged(self):
        assert "bare-random" in names("import random\n")

    def test_from_random_import_flagged(self):
        assert "bare-random" in names("from random import choice\n")

    def test_other_module_clean(self):
        assert names("import itertools\n") == []


class TestWallClock:
    def test_time_time_flagged(self):
        assert "wall-clock" in names("import time\nt = time.time()\n")

    def test_monotonic_flagged(self):
        assert "wall-clock" in names(
            "import time\nt = time.monotonic()\n"
        )

    def test_datetime_now_flagged(self):
        code = "import datetime\nt = datetime.datetime.now()\n"
        assert "wall-clock" in names(code)

    def test_from_datetime_import_now_call_flagged(self):
        code = ("from datetime import datetime\n"
                "t = datetime.now()\n")
        assert "wall-clock" in names(code)

    def test_from_time_import_flagged(self):
        assert "wall-clock" in names("from time import monotonic\n")

    def test_time_sleep_clean(self):
        assert names("import time\ntime.sleep(1)\n") == []


class TestSetIteration:
    def test_for_over_set_call_flagged(self):
        assert "set-iteration" in names(
            "for x in set(items):\n    go(x)\n"
        )

    def test_for_over_set_literal_flagged(self):
        assert "set-iteration" in names(
            "for x in {1, 2, 3}:\n    go(x)\n"
        )

    def test_comprehension_over_frozenset_flagged(self):
        assert "set-iteration" in names(
            "out = [f(x) for x in frozenset(items)]\n"
        )

    def test_sorted_set_clean(self):
        assert names("for x in sorted(set(items)):\n    go(x)\n") == []

    def test_list_iteration_clean(self):
        assert names("for x in [1, 2]:\n    go(x)\n") == []


class TestTimestampEq:
    def test_now_equality_flagged(self):
        assert "float-timestamp-eq" in names(
            "if sched.now == deadline:\n    pass\n"
        )

    def test_suffix_attribute_flagged(self):
        assert "float-timestamp-eq" in names(
            "ok = entry.last_heard == stamp\n"
        )

    def test_ordering_comparison_clean(self):
        assert names("ok = sched.now < deadline\n") == []

    def test_string_comparison_clean(self):
        # 'format' membership: attr names ending _at vs str constants.
        assert names("ok = record.created_at == 'never'\n") == []

    def test_applies_everywhere(self):
        code = "ok = a.when != b.when\n"
        assert "float-timestamp-eq" in names(code, package="analysis")


class TestMutableDefault:
    def test_list_default_flagged(self):
        assert "mutable-default" in names("def f(xs=[]):\n    pass\n")

    def test_dict_call_default_flagged(self):
        assert "mutable-default" in names(
            "def f(xs=dict()):\n    pass\n"
        )

    def test_kwonly_default_flagged(self):
        assert "mutable-default" in names(
            "def f(*, xs={}):\n    pass\n"
        )

    def test_none_default_clean(self):
        assert names("def f(xs=None):\n    pass\n") == []

    def test_tuple_default_clean(self):
        assert names("def f(xs=()):\n    pass\n") == []


class TestNegativeDelay:
    def test_negative_literal_flagged(self):
        assert "negative-delay" in names("sched.schedule(-1.0, cb)\n")

    def test_positive_literal_clean(self):
        findings = names("h = sched.schedule(1.0, cb)\n")
        assert "negative-delay" not in findings


class TestDiscardedHandle:
    def test_bare_schedule_statement_flagged(self):
        assert "discarded-handle" in names("sched.schedule(1.0, cb)\n")

    def test_bare_schedule_at_flagged(self):
        assert "discarded-handle" in names(
            "self.scheduler.schedule_at(5.0, cb)\n"
        )

    def test_stored_handle_clean(self):
        assert names("h = sched.schedule(1.0, cb)\n") == []

    def test_not_applied_outside_sim_scope(self):
        assert names("sched.schedule(1.0, cb)\n",
                     package="lint") == []

    def test_discarded_alias_call_flagged(self):
        code = ("def send(scheduler, cb):\n"
                "    schedule = scheduler.schedule_at\n"
                "    schedule(1.0, cb)\n"
                "    def later():\n"
                "        schedule(2.0, cb)\n"
                "    return later\n")
        findings = lint_source(code, package="sim")
        assert [(f.rule, f.line) for f in findings] == \
            [("discarded-handle", 3), ("discarded-handle", 5)]

    def test_stored_alias_result_clean(self):
        code = ("def send(scheduler, cb):\n"
                "    schedule = scheduler.schedule\n"
                "    handle = schedule(1.0, cb)\n"
                "    return handle\n")
        assert names(code) == []

    def test_alias_of_another_attribute_clean(self):
        code = ("def send(network, packet):\n"
                "    deliver = network.send\n"
                "    deliver(packet)\n")
        assert names(code) == []


class TestModuleMutableState:
    def test_module_dict_flagged_in_sim(self):
        assert "module-mutable-state" in names("CACHE = {}\n",
                                               package="sim")

    def test_module_list_flagged_in_core(self):
        assert "module-mutable-state" in names("SEEN = []\n",
                                               package="core")

    def test_dunder_all_exempt(self):
        assert names("__all__ = ['a', 'b']\n", package="sim") == []

    def test_tuple_constant_clean(self):
        assert names("BANDS = (1, 2, 3)\n", package="sim") == []

    def test_not_applied_in_sap(self):
        assert names("CACHE = {}\n", package="sap") == []

    def test_function_local_clean(self):
        assert names("def f():\n    cache = {}\n    return cache\n",
                     package="sim") == []


class TestBuiltinHash:
    def test_hash_call_flagged(self):
        assert "builtin-hash" in names("key = hash(name)\n")

    def test_crc32_clean(self):
        assert names(
            "import zlib\nkey = zlib.crc32(name.encode())\n"
        ) == []


class TestTtlWidening:
    def test_ttl_plus_constant_flagged(self):
        assert "ttl-widening" in names("wide = ttl + 1\n")

    def test_constant_plus_attribute_ttl_flagged(self):
        assert "ttl-widening" in names("wide = 2 + packet.ttl\n")

    def test_ttl_times_constant_flagged(self):
        assert "ttl-widening" in names("wide = session_ttl * 2\n")

    def test_ttl_decrement_clean(self):
        assert names("narrow = packet.ttl - 1\n") == []

    def test_ttl_times_one_clean(self):
        assert names("same = ttl * 1\n") == []

    def test_ttl_plus_variable_clean(self):
        # Only constant widening is statically decidable.
        assert names("maybe = ttl + margin\n") == []

    def test_unrelated_name_clean(self):
        assert names("total = count + 1\n") == []

    def test_not_applied_outside_sim_scope(self):
        assert names("wide = ttl + 1\n", package="analysis") == []


class TestAddressTtlConfusion:
    def test_address_passed_as_ttl_kwarg_flagged(self):
        assert "address-ttl-confusion" in names(
            "pkt = Packet(source=0, ttl=address, payload=b'x')\n"
        )

    def test_address_index_attribute_as_ttl_flagged(self):
        assert "address-ttl-confusion" in names(
            "send(ttl=entry.address_index)\n"
        )

    def test_ttl_passed_as_address_kwarg_flagged(self):
        assert "address-ttl-confusion" in names(
            "observe(message, address_index=session_ttl)\n"
        )

    def test_ttl_first_arg_to_index_to_ip_flagged(self):
        assert "address-ttl-confusion" in names(
            "ip = space.index_to_ip(ttl)\n"
        )

    def test_correct_kwargs_clean(self):
        assert names(
            "pkt = Packet(source=0, ttl=ttl, payload=b'x')\n"
        ) == []

    def test_address_to_index_to_ip_clean(self):
        assert names("ip = space.index_to_ip(address)\n") == []


class TestUninformedAllocateOverride:
    def test_override_ignoring_visible_flagged(self):
        code = (
            "class BadAllocator(Allocator):\n"
            "    def allocate(self, ttl, visible):\n"
            "        return AllocationResult(7, None, True, False)\n"
        )
        assert "uninformed-allocate-override" in names(code)

    def test_informed_pick_delegation_clean(self):
        code = (
            "class GoodAllocator(Allocator):\n"
            "    def allocate(self, ttl, visible):\n"
            "        return self._informed_pick(visible, 0, self.n)\n"
        )
        assert names(code) == []

    def test_delegating_to_inner_allocate_clean(self):
        code = (
            "class WrapAllocator(Allocator):\n"
            "    def allocate(self, ttl, visible):\n"
            "        return self.inner.allocate(ttl, visible)\n"
        )
        assert names(code) == []

    def test_explicit_informed_false_clean(self):
        # Deliberately uninformed allocators opt out in the result.
        code = (
            "class Randomish(Allocator):\n"
            "    def allocate(self, ttl, visible):\n"
            "        return AllocationResult(7, band=None,\n"
            "                                informed=False,\n"
            "                                forced=False)\n"
        )
        assert names(code) == []

    def test_non_allocator_class_clean(self):
        code = (
            "class Planner:\n"
            "    def allocate(self, ttl, visible):\n"
            "        return 7\n"
        )
        assert names(code) == []


class TestLoopCapture:
    def test_loop_var_captured_by_reference_flagged(self):
        code = (
            "for node in nodes:\n"
            "    sched.schedule(  # simlint: disable=discarded-handle\n"
            "        1.0, lambda: deliver(node))\n"
        )
        assert "loop-capture" in names(code)

    def test_tuple_target_captured_flagged(self):
        code = (
            "for node, delay in pairs:\n"
            "    h = sched.schedule_at(delay, lambda: go(node))\n"
        )
        assert "loop-capture" in names(code)

    def test_default_binding_clean(self):
        code = (
            "for node in nodes:\n"
            "    h = sched.schedule(1.0, lambda n=node: deliver(n))\n"
        )
        assert names(code) == []

    def test_lambda_not_using_loop_var_clean(self):
        code = (
            "for node in nodes:\n"
            "    h = sched.schedule(1.0, lambda: tick())\n"
        )
        assert names(code) == []

    def test_lambda_outside_loop_clean(self):
        assert names("h = sched.schedule(1.0, lambda: go(node))\n") == []

    def test_non_schedule_call_clean(self):
        code = (
            "for node in nodes:\n"
            "    out.append(lambda: deliver(node))\n"
        )
        assert names(code) == []


class TestSuppressions:
    def test_line_suppression(self):
        code = ("import numpy as np\n"
                "r = np.random.default_rng()"
                "  # simlint: disable=unseeded-rng\n")
        assert lint_source(code, package="sim") == []

    def test_line_suppression_wrong_rule_does_not_apply(self):
        code = ("import numpy as np\n"
                "r = np.random.default_rng()"
                "  # simlint: disable=wall-clock\n")
        assert names(code) == ["unseeded-rng"]

    def test_bare_disable_suppresses_everything_on_line(self):
        code = "key = hash(name)  # simlint: disable\n"
        assert lint_source(code, package="sim") == []

    def test_file_wide_suppression(self):
        code = ("# simlint: disable-file=builtin-hash\n"
                "key = hash(name)\n"
                "other = hash(thing)\n")
        assert lint_source(code, package="sim") == []

    def test_multiline_statement_suppressed_at_first_line(self):
        code = ("sched.schedule(  # simlint: disable=discarded-handle\n"
                "    1.0, cb\n"
                ")\n")
        assert lint_source(code, package="sim") == []

    def test_parse_suppressions_multiple_rules(self):
        sup = parse_suppressions(
            "x = 1  # simlint: disable=rule-a, rule-b\n"
        )
        assert sup.suppressed(1, "rule-a")
        assert sup.suppressed(1, "rule-b")
        assert not sup.suppressed(1, "rule-c")
        assert not sup.suppressed(2, "rule-a")


class TestEngine:
    def test_syntax_error_reported_as_finding(self):
        findings = lint_source("def broken(:\n")
        assert len(findings) == 1
        assert findings[0].rule == "parse-error"
        assert findings[0].code == "SIM000"

    def test_package_of(self):
        assert package_of("src/repro/sim/rng.py") == "sim"
        assert package_of("src/repro/cli.py") == ""
        assert package_of("/tmp/scratch.py") is None

    def test_unknown_package_gets_full_rule_set(self):
        code = "import numpy as np\nr = np.random.default_rng()\n"
        findings = lint_source(code, path="/tmp/anything.py")
        assert [f.rule for f in findings] == ["unseeded-rng"]

    def test_findings_sorted_by_position(self):
        code = ("key = hash(b)\n"
                "other = hash(a)\n")
        findings = lint_source(code, package="sim")
        assert [f.line for f in findings] == [1, 2]

    def test_get_rules_select_and_ignore(self):
        only = get_static_rules(select=["builtin-hash"])
        assert [r.name for r in only] == ["builtin-hash"]
        rest = get_static_rules(ignore=["builtin-hash"])
        assert "builtin-hash" not in [r.name for r in rest]

    def test_get_rules_unknown_name_raises(self):
        try:
            get_static_rules(select=["no-such-rule"])
        except ValueError as exc:
            assert "no-such-rule" in str(exc)
        else:
            raise AssertionError("expected ValueError")

    def test_registry_codes_unique_and_scoped(self):
        codes = [r.code for r in ALL_RULES]
        assert len(codes) == len(set(codes))
        assert len(ALL_RULES) == 16
        for rule in ALL_RULES:
            assert rule.scope is None or rule.scope <= SIM_PACKAGES


class TestReporters:
    def test_text_clean_summary(self):
        assert "clean" in render_text([])

    def test_text_lists_findings_with_locations(self):
        finding = Finding(path="x.py", line=3, col=4, code="SIM110",
                          rule="builtin-hash", message="no hash()")
        text = render_text([finding])
        assert "x.py:3:4" in text
        assert "SIM110" in text
        assert "1 finding" in text

    def test_json_round_trips(self):
        finding = Finding(path="x.py", line=3, col=4, code="SIM110",
                          rule="builtin-hash", message="no hash()")
        data = json.loads(render_json([finding]))
        assert data["count"] == 1
        assert data["findings"][0]["rule"] == "builtin-hash"
