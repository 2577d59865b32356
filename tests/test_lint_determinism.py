"""Run-twice determinism harness tests.

The harness is the dynamic half of the determinism contract: the
static rules stop known nondeterminism patterns from entering the
tree, and this scenario catches whatever they miss by demanding
byte-identical event traces for identical seeds.
"""

import hashlib

from repro.lint.determinism import run_scenario, verify

#: ``run_scenario(seed=1998)``: 1,140 lines with this digest, ending in
#: this counters footer.  A change to the scheduler, network, SAP stack
#: or allocator that moves any event changes the digest; the footer
#: names the counts that moved.
SEED_1998_SHA256 = (
    "4983e827154461d92339d3047312e26d4e2a239b3d9b9bbb480ab5beaee5f998"
)
SEED_1998_FOOTER = """\
-- counters --
events_run=1287
packets sent=279 delivered=987 lost=63
n0: rx=192 moves=0 clashes=77 defences=14 retreats=0
n1: rx=177 moves=13 clashes=70 defences=7 retreats=13
n2: rx=169 moves=6 clashes=74 defences=21 retreats=6
n3: rx=149 moves=4 clashes=36 defences=0 retreats=4
n4: rx=144 moves=0 clashes=45 defences=4 retreats=0
n5: rx=129 moves=0 clashes=30 defences=2 retreats=0
"""


class TestRunScenario:
    def test_same_seed_byte_identical(self):
        first = run_scenario(seed=1998)
        second = run_scenario(seed=1998)
        assert first == second

    def test_scenario_is_nontrivial(self):
        trace = run_scenario(seed=1998)
        # The scenario must actually exercise the machinery it guards:
        # announcements flowing, clashes detected, losses drawn.
        assert "announcement received" in trace
        assert "creating" in trace
        assert "lost=0" not in trace
        counters = trace[trace.index("-- counters --"):]
        clashes = [int(part.split("=")[1])
                   for line in counters.splitlines()
                   for part in line.split()
                   if part.startswith("clashes=")]
        assert sum(clashes) > 0

    def test_different_seeds_diverge(self):
        assert run_scenario(seed=1) != run_scenario(seed=2)

    def test_seed_1998_trace_is_pinned(self):
        trace = run_scenario(seed=1998)
        assert trace[trace.index("-- counters --"):] == SEED_1998_FOOTER
        assert trace.count("\n") == 1140
        digest = hashlib.sha256(trace.encode("utf-8")).hexdigest()
        assert digest == SEED_1998_SHA256


class TestVerify:
    def test_verify_reports_identical(self):
        report = verify(seed=1998)
        assert report.identical
        assert report.first_divergence is None
        assert report.trace_lines > 100
        assert "IDENTICAL" in report.format()

    def test_events_run_is_the_schedulers_count(self):
        report = verify(seed=1998)
        assert report.events_run == 1287
        assert report.trace_lines == 1140
        assert "events=1287, trace=1140 lines" in report.format()

    def test_verify_smaller_world(self):
        report = verify(seed=5, num_sites=4, sessions_per_site=2,
                        space_size=6, horizon=120.0)
        assert report.identical
