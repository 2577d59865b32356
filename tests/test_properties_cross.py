"""Cross-cutting property tests over all allocation algorithms.

Invariants every allocator must satisfy for arbitrary visible sets:

* the chosen address is inside the space;
* if the algorithm is informed and its target range has free
  addresses, a visible address is never chosen (and forced=False);
* allocation is a pure function of (rng state, ttl, visible): two
  identically-seeded instances agree.

Plus protocol-level fuzz: the SAP codec never crashes on arbitrary
bytes, and SDP parsing either round-trips or raises ValueError.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.adaptive import AdaptiveIprmaAllocator
from repro.core.adaptive_legacy import LegacyAdaptiveIprmaAllocator
from repro.core.allocator import OccupancyView
from repro.core.hybrid import HybridIprmaAllocator
from repro.core.informed import InformedRandomAllocator
from repro.core.iprma import StaticIprmaAllocator
from repro.core.random_alloc import RandomAllocator
from repro.sap.messages import SapMessage
from repro.sap.sdp import SessionDescription

SPACE = 300
PAPER_TTLS = (1, 15, 31, 47, 63, 127, 191)

ALLOCATOR_FACTORIES = [
    lambda rng: RandomAllocator(SPACE, rng),
    lambda rng: InformedRandomAllocator(SPACE, rng),
    lambda rng: StaticIprmaAllocator.three_band(SPACE, rng),
    lambda rng: StaticIprmaAllocator.seven_band(SPACE, rng),
    lambda rng: AdaptiveIprmaAllocator.aipr1(SPACE, rng=rng),
    lambda rng: AdaptiveIprmaAllocator.aipr3(SPACE, rng=rng),
    lambda rng: HybridIprmaAllocator(SPACE, rng=rng),
    lambda rng: LegacyAdaptiveIprmaAllocator(SPACE, mode="push",
                                             rng=rng),
    lambda rng: LegacyAdaptiveIprmaAllocator(SPACE, mode="proportional",
                                             rng=rng),
]

visible_sets = st.lists(
    st.tuples(st.integers(0, SPACE - 1), st.sampled_from(PAPER_TTLS)),
    max_size=80,
).map(lambda pairs: OccupancyView.from_pairs(
    [a for a, __ in pairs], [t for __, t in pairs], SPACE))


class TestAllocatorInvariants:
    @settings(max_examples=40, deadline=None)
    @given(visible=visible_sets, ttl=st.sampled_from(PAPER_TTLS),
           seed=st.integers(0, 2 ** 31))
    def test_address_always_in_space(self, visible, ttl, seed):
        for factory in ALLOCATOR_FACTORIES:
            allocator = factory(np.random.default_rng(seed))
            result = allocator.allocate(ttl, visible)
            assert 0 <= result.address < SPACE

    @settings(max_examples=40, deadline=None)
    @given(visible=visible_sets, ttl=st.sampled_from(PAPER_TTLS),
           seed=st.integers(0, 2 ** 31))
    def test_unforced_informed_never_reuses_visible(self, visible, ttl,
                                                    seed):
        used = set(range(SPACE)) - set(
            visible.free_offsets(0, SPACE).tolist())
        for factory in ALLOCATOR_FACTORIES[1:]:  # skip pure random
            allocator = factory(np.random.default_rng(seed))
            result = allocator.allocate(ttl, visible)
            if not result.forced:
                assert result.address not in used

    @settings(max_examples=25, deadline=None)
    @given(visible=visible_sets, ttl=st.sampled_from(PAPER_TTLS),
           seed=st.integers(0, 2 ** 31))
    def test_deterministic_given_seed(self, visible, ttl, seed):
        for factory in ALLOCATOR_FACTORIES:
            first = factory(np.random.default_rng(seed)).allocate(
                ttl, visible
            )
            second = factory(np.random.default_rng(seed)).allocate(
                ttl, visible
            )
            assert first == second

    @settings(max_examples=25, deadline=None)
    @given(visible=visible_sets, seed=st.integers(0, 2 ** 31))
    def test_partitioned_allocators_respect_band_order(self, visible,
                                                       seed):
        """For band-based allocators, a higher TTL never lands at a
        lower address than a lower TTL would in the same world state
        (bands are TTL-ordered in address space)."""
        for factory in (
            lambda rng: AdaptiveIprmaAllocator.aipr1(SPACE, rng=rng),
            lambda rng: HybridIprmaAllocator(SPACE, rng=rng),
        ):
            allocator = factory(np.random.default_rng(seed))
            geometry = allocator.band_geometry(visible)
            for (lo_a, hi_a), (lo_b, hi_b) in zip(geometry,
                                                  geometry[1:]):
                assert hi_a <= lo_b or lo_a == 0


class TestCodecFuzz:
    @settings(max_examples=200)
    @given(st.binary(max_size=64))
    def test_sap_decode_never_crashes(self, data):
        try:
            message = SapMessage.decode(data)
        except ValueError:
            return
        # Anything decoded must re-encode to something decodable.
        again = SapMessage.decode(message.encode())
        assert again.msg_type == message.msg_type
        assert again.msg_id_hash == message.msg_id_hash

    @settings(max_examples=200)
    @given(st.text(max_size=200))
    def test_sdp_parse_never_crashes(self, text):
        try:
            description = SessionDescription.parse(text)
        except ValueError:
            return
        # Successful parses must survive a round trip.
        assert SessionDescription.parse(description.format()) == \
            description
