"""The per-allocation kernels, each pinned to the code it replaced.

One allocation in the figure harnesses samples a TTL, reads the
allocating node's view, looks up a band, picks an informed address and
checks the new session for clashes.  Each of those steps has a fast
form; these tests hold every fast form equal to the plain numpy
expression it replaced, including the random draws it makes, because
the figure rows and the benchmark fingerprints rest on both.
"""

import math

import numpy as np
import pytest

from repro.core.adaptive import AdaptiveIprmaAllocator
from repro.core.allocator import OccupancyView, nth_free_address
from repro.core.hybrid import HybridIprmaAllocator
from repro.core.informed import InformedRandomAllocator
from repro.core.partitions import (
    IPR3_EDGES,
    IPR7_EDGES,
    PartitionMap,
    equal_band_ranges,
    margin_partition_map,
)
from repro.core.session import Session
from repro.experiments.ttl_distributions import ALL_DISTRIBUTIONS, DS1
from repro.experiments.world import AllocationWorld
from repro.routing.scoping import ScopeMap
from repro.topology.mbone import MboneParams, generate_mbone


@pytest.fixture(scope="module")
def mbone60_scope_map():
    return ScopeMap.from_topology(
        generate_mbone(MboneParams(total_nodes=60, seed=1998)))


def _reference_pick(rng, addresses, lo, hi):
    """The informed pick as ``np.unique`` plus ``nth_free_address``."""
    addresses = np.asarray(addresses, dtype=np.int64)
    used = np.unique(addresses[(addresses >= lo) & (addresses < hi)])
    free = (hi - lo) - len(used)
    if free <= 0:
        return int(rng.integers(lo, hi)), True
    return nth_free_address(used, int(rng.integers(0, free)), lo, hi), False


class TestInformedPick:
    def _check(self, seed, addresses, ttls, lo, hi, space_size):
        allocator = InformedRandomAllocator(
            hi, rng=np.random.default_rng(seed))
        reference_rng = np.random.default_rng(seed)
        visible = OccupancyView.from_pairs(addresses, ttls, space_size)
        result = allocator._informed_pick(visible, lo, hi, band=3)
        address, forced = _reference_pick(reference_rng, addresses, lo, hi)
        assert (result.address, result.forced) == (address, forced)
        assert result.informed is not forced
        assert result.band == 3
        assert (allocator.rng.bit_generator.state
                == reference_rng.bit_generator.state)
        return result

    def test_random_views(self):
        rng = np.random.default_rng(20)
        for seed in range(400):
            lo = int(rng.integers(0, 50))
            hi = lo + int(rng.integers(1, 60))
            count = int(rng.integers(0, 80))
            addresses = rng.integers(0, hi + 10, size=count)
            ttls = rng.integers(1, 256, size=count)
            self._check(seed, addresses, ttls, lo, hi, hi + 10)

    def test_empty_view(self):
        for seed in range(50):
            result = self._check(seed, [], [], 7, 19, 19)
            assert not result.forced

    def test_full_range_forces_a_pick(self):
        addresses = [12, 10, 11, 13, 10, 3, 40]
        for seed in range(50):
            result = self._check(seed, addresses, [1] * 7, 10, 14, 41)
            assert result.forced
            assert 10 <= result.address < 14


class TestScopesOverlap:
    def test_every_ds1_scope_pair(self, mbone60_scope_map):
        scope_map = mbone60_scope_map
        scopes = [(source, ttl) for source in range(scope_map.num_nodes)
                  for ttl in sorted(set(DS1.values))]
        reach = np.array([scope_map.reachable(s, t) for s, t in scopes])
        expected = (reach[:, None, :] & reach[None, :, :]).any(axis=2)
        overlap = np.array([[scope_map.scopes_overlap(sa, ta, sb, tb)
                             for sb, tb in scopes] for sa, ta in scopes])
        assert overlap.tolist() == expected.tolist()
        # Both answers are present, so the comparison has teeth.
        assert 0 < expected.sum() < expected.size

    def test_every_node_bit_at_boundary_ttls(self, mbone60_scope_map):
        # A (v, 0) scope holds node v alone, so overlapping it reads
        # v's bit; TTLs equal to need entries sit on the <= boundary.
        scope_map = mbone60_scope_map
        n = scope_map.num_nodes
        for source in range(n):
            need = scope_map.need[source]
            for ttl in np.unique(need[need <= 255]).tolist():
                bits = [scope_map.scopes_overlap(source, ttl, node, 0)
                        for node in range(n)]
                assert bits == (need <= ttl).tolist()


#: Address space of the churn test; wide enough for the 55 margin bands.
CHURN_SPACE = 100
CHURN_MAPS = (PartitionMap(IPR3_EDGES), PartitionMap(IPR7_EDGES),
              margin_partition_map(2))
#: The ranges the churn test also picks from: the space, IPR-7's bands.
PICK_RANGES = [(0, CHURN_SPACE)] + equal_band_ranges(CHURN_SPACE, 7)


class PairsView:
    """The reference view: the (address, ttl) pairs of the sessions a
    node hears, answering each question from the pairs themselves."""

    def __init__(self, addresses, ttls):
        self.addresses = np.asarray(addresses, dtype=np.int64)
        self.ttls = np.asarray(ttls, dtype=np.int64)

    def __len__(self):
        return len(self.addresses)

    def free_offsets(self, lo, hi):
        addresses = self.addresses
        occupied = np.zeros(hi - lo, dtype=bool)
        occupied[addresses[(addresses >= lo) & (addresses < hi)] - lo] = True
        return (~occupied).nonzero()[0]

    def band_counts(self, partition_map, min_ttl):
        ttls = self.ttls
        return partition_map.band_counts(ttls[ttls >= min_ttl]).tolist()


class TestVisibleAt:
    """The world's view of a node against the pairs of the sessions
    that node hears, gathered from ``need`` over a live list kept
    beside the world."""

    def _assert_same_view(self, view, reference, seed):
        assert len(view) == len(reference)
        for partition_map in CHURN_MAPS:
            num_bands = partition_map.num_bands
            for band in range(num_bands):
                lowest, __ = partition_map.ttl_range(band)
                assert (view.band_counts(partition_map, lowest)
                        == reference.band_counts(partition_map, lowest))
            for lo, hi in ([(0, CHURN_SPACE)]
                           + equal_band_ranges(CHURN_SPACE, num_bands)):
                assert (view.free_offsets(lo, hi).tolist()
                        == reference.free_offsets(lo, hi).tolist())
        for lo, hi in PICK_RANGES:
            ours, theirs = (InformedRandomAllocator(
                CHURN_SPACE, rng=np.random.default_rng(seed))
                for __ in range(2))
            assert (ours._informed_pick(view, lo, hi)
                    == theirs._informed_pick(reference, lo, hi))
            assert (ours.rng.bit_generator.state
                    == theirs.rng.bit_generator.state)

    def test_matches_need_gather_under_churn(self, mbone60_scope_map):
        scope_map = mbone60_scope_map
        world = AllocationWorld(scope_map, CHURN_SPACE)
        live = []
        rng = np.random.default_rng(5)
        n = scope_map.num_nodes
        for step in range(600):
            if len(world) and rng.random() < 0.4:
                removed = world.remove_at(world.random_slot(rng))
                live.remove(removed)
            else:
                # Any TTL, so that some equal a need entry exactly.
                session = Session(address=int(rng.integers(0, CHURN_SPACE)),
                                  ttl=int(rng.integers(1, 256)),
                                  source=int(rng.integers(0, n)))
                world.add(session)
                live.append(session)
            assert len(world) == len(live)
            sources = np.array([s.source for s in live], dtype=np.int64)
            ttls = np.array([s.ttl for s in live], dtype=np.int64)
            addresses = np.array([s.address for s in live], dtype=np.int64)
            node = step % n
            mask = scope_map.need[sources, node] <= ttls
            reference = PairsView(addresses[mask], ttls[mask])
            self._assert_same_view(world.visible_at(node), reference, step)


def _adaptive_allocators(space_size, seed):
    """AIPR-1..4, AIPR-1 over the 55 margin bands, and AIPR-H."""
    allocators = [AdaptiveIprmaAllocator(
        space_size, gap, rng=np.random.default_rng(seed))
        for gap in (0.2, 0.5, 0.6, 0.7)]
    allocators.append(AdaptiveIprmaAllocator(
        space_size, edges=margin_partition_map(2).edges,
        rng=np.random.default_rng(seed)))
    allocators.append(HybridIprmaAllocator(
        space_size, rng=np.random.default_rng(seed)))
    return allocators


class TestBandRange:
    """AIPR and AIPR-H lay out only the band they allocate from; each
    such range must be the one the whole-map layout gives that band."""

    SPACES = (7, 16, 100, 400, 1600)

    def _views(self, space_size, rng):
        """Seeded views from empty to three times overfull."""
        for sessions in (0, 1, space_size // 20, space_size // 2,
                         space_size, 3 * space_size):
            yield OccupancyView.from_pairs(
                rng.integers(0, space_size, size=sessions),
                rng.integers(1, 256, size=sessions), space_size)

    def test_matches_the_whole_map_layout(self):
        clamps = {(family, clamp): 0
                  for family in ("AdaptiveIprmaAllocator",
                                 "HybridIprmaAllocator")
                  for clamp in ("top below one", "size over top")}
        rng = np.random.default_rng(30)
        for space_size in self.SPACES:
            for seed, view in enumerate(self._views(space_size, rng)):
                for ours, theirs in zip(_adaptive_allocators(space_size,
                                                             seed),
                                        _adaptive_allocators(space_size,
                                                             seed)):
                    self._check(ours, theirs, view, clamps)
        # Both clamps of both layouts are reached, so the comparison
        # covers them.
        assert min(clamps.values()) > 0, clamps

    def _check(self, ours, theirs, view, clamps):
        partition_map = ours.partition_map
        family = type(ours).__name__
        geometries = []
        for band in range(partition_map.num_bands):
            lowest, __ = partition_map.ttl_range(band)
            geometry = theirs.band_geometry(view, lowest)
            geometries.append(geometry)
            count = view.band_counts(partition_map, lowest)[band]
            size = max(1, math.ceil(count / ours.occupancy))
            if geometry[band][1] - size < 0:
                clamps[family, "size over top"] += 1
            if band + 1 < partition_map.num_bands and \
                    geometry[band + 1][0] - ours.gap < 1:
                clamps[family, "top below one"] += 1
        for ttl in range(1, 256):
            band = partition_map.band_of(ttl)
            expected = geometries[band][band]
            assert ours.declared_ranges(ttl, view) == [expected]
            assert (ours.allocate(ttl, view)
                    == theirs._informed_pick(view, *expected, band))
        assert (ours.rng.bit_generator.state
                == theirs.rng.bit_generator.state)


class TestBandOf:
    @pytest.mark.parametrize("partition_map", [
        PartitionMap(IPR3_EDGES),
        PartitionMap(IPR7_EDGES),
        margin_partition_map(2),
    ], ids=["ipr3", "ipr7", "margin2"])
    def test_matches_searchsorted(self, partition_map):
        edges = np.asarray(partition_map.edges)
        ttls = np.arange(-1, 301)
        expected = np.searchsorted(edges, ttls, side="right")
        for ttl, band in zip(ttls.tolist(), expected.tolist()):
            for scalar in (ttl, np.int64(ttl)):
                got = partition_map.band_of(scalar)
                assert type(got) is int
                assert got == band
        assert partition_map.band_of(ttls).tolist() == expected.tolist()

    @pytest.mark.parametrize("partition_map", [
        PartitionMap(IPR3_EDGES),
        PartitionMap(IPR7_EDGES),
        margin_partition_map(2),
    ], ids=["ipr3", "ipr7", "margin2"])
    def test_folded_ttl_counts_match_band_counts(self, partition_map):
        ttls = np.random.default_rng(8).integers(1, 256, size=300)
        per_ttl = np.bincount(ttls, minlength=256).astype(np.int16)
        for min_ttl in range(256):
            assert (partition_map.fold_ttl_counts(per_ttl, min_ttl)
                    == partition_map.band_counts(
                        ttls[ttls >= min_ttl]).tolist())


class TestSample:
    def test_matches_generator_choice(self):
        for distribution in ALL_DISTRIBUTIONS:
            values = np.asarray(distribution.values)
            for seed in range(200):
                ours = np.random.default_rng(seed)
                theirs = np.random.default_rng(seed)
                for __ in range(50):
                    ttl = distribution.sample(ours)
                    assert type(ttl) is int
                    assert ttl == int(theirs.choice(values))
                assert (ours.bit_generator.state
                        == theirs.bit_generator.state)
