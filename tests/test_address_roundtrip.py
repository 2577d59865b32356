"""Round-trip laws for the int-level address mapping.

The allocators work in dense indices and absolute 32-bit ints; these
tests pin the conversion laws at exactly the block edges — index 0,
``size - 1``, one past the end, and the 224/4 boundary itself — plus
seeded property-style sweeps over random interior points.
"""

import random

import pytest

from repro.core.address_space import (
    MULTICAST_BASE,
    MULTICAST_END,
    MULTICAST_TOTAL,
    MulticastAddressSpace,
    int_to_ip,
    ip_to_int,
)

SEED = 0xAD4C  # fixed so failures reproduce


SPACES = [
    MulticastAddressSpace.sdr_dynamic(),
    MulticastAddressSpace.admin_local_scope(),
    MulticastAddressSpace.full_ipv4(),
    MulticastAddressSpace.abstract(1),          # degenerate: one slot
    MulticastAddressSpace.abstract(10_000),
    # a block flush against the very end of multicast space
    MulticastAddressSpace(MULTICAST_END - 256, 256, name="tail"),
]


def space_id(space):
    return space.name


class TestIpStringRoundTrip:
    @pytest.mark.parametrize("dotted", [
        "224.0.0.0", "224.2.128.0", "239.255.0.0",
        "239.255.255.255", "0.0.0.0", "255.255.255.255",
    ])
    def test_named_corners(self, dotted):
        assert int_to_ip(ip_to_int(dotted)) == dotted

    def test_seeded_sweep(self):
        rng = random.Random(SEED)
        for __ in range(200):
            value = rng.randint(0, 2 ** 32 - 1)
            assert ip_to_int(int_to_ip(value)) == value

    def test_multicast_boundary_values(self):
        assert ip_to_int("224.0.0.0") == MULTICAST_BASE
        assert ip_to_int("240.0.0.0") == MULTICAST_END
        assert MULTICAST_END - MULTICAST_BASE == MULTICAST_TOTAL \
            == 2 ** 28

    @pytest.mark.parametrize("bad", [
        "224.0.0", "224.0.0.0.0", "224.0.0.256", "224.0.0.-1",
        "not.an.ip.addr", "",
    ])
    def test_malformed_strings_raise(self, bad):
        with pytest.raises(ValueError):
            ip_to_int(bad)

    def test_out_of_range_int_raises(self):
        with pytest.raises(ValueError):
            int_to_ip(2 ** 32)
        with pytest.raises(ValueError):
            int_to_ip(-1)


class TestIndexAddressRoundTrip:
    @pytest.mark.parametrize("space", SPACES, ids=space_id)
    def test_edge_indices_round_trip(self, space):
        for index in {0, space.size - 1, space.size // 2}:
            addr = space.index_to_address(index)
            assert space.contains_address(addr)
            assert space.address_to_index(addr) == index
            # the dotted-quad path agrees with the int path
            assert space.ip_to_index(space.index_to_ip(index)) == index

    @pytest.mark.parametrize("space", SPACES, ids=space_id)
    def test_one_past_the_end_raises(self, space):
        with pytest.raises(IndexError):
            space.index_to_address(space.size)
        with pytest.raises(IndexError):
            space.index_to_address(-1)

    @pytest.mark.parametrize("space", SPACES, ids=space_id)
    def test_outside_the_block_raises(self, space):
        for addr in (space.base - 1, space.base + space.size):
            assert not space.contains_address(addr)
            with pytest.raises(ValueError):
                space.address_to_index(addr)

    def test_full_space_reaches_multicast_end_minus_one(self):
        space = MulticastAddressSpace.full_ipv4()
        last = space.index_to_address(space.size - 1)
        assert last == MULTICAST_END - 1
        assert int_to_ip(last) == "239.255.255.255"
        with pytest.raises(ValueError):
            space.address_to_index(MULTICAST_END)

    @pytest.mark.parametrize("space", SPACES, ids=space_id)
    def test_seeded_interior_round_trip(self, space):
        rng = random.Random(SEED ^ space.size)
        for __ in range(50):
            index = rng.randrange(space.size)
            addr = space.index_to_address(index)
            assert space.base <= addr < space.base + space.size
            assert space.address_to_index(addr) == index

    def test_index_to_ip_delegates_to_the_int_path(self):
        space = MulticastAddressSpace.sdr_dynamic()
        assert space.index_to_ip(0) == int_to_ip(space.base)
        assert space.index_to_ip(space.size - 1) == \
            int_to_ip(space.base + space.size - 1)
        with pytest.raises(IndexError):
            space.index_to_ip(space.size)
