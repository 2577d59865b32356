"""Multicast address spaces.

Allocators work over a dense index space ``0..size-1``; this module maps
those indices onto real IPv4 multicast ranges.  The paper's reference
points:

* IPv4 has 2^28 (~270 million) multicast addresses (224.0.0.0/4);
* the IANA range for dynamically-allocated (sdr) addresses at the time
  was 65 536 addresses — modelled here as 224.2.128.0/16-at-heart
  (sdr used 224.2.128.0 .. 224.2.255.255 plus neighbouring space; the
  exact base does not affect any experiment);
* administratively scoped space lives in 239.0.0.0/8 (RFC 2365).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.types import Addr, Count, SlotIndex

#: First IPv4 multicast address.
MULTICAST_BASE = 0xE0000000  # 224.0.0.0
#: One past the last IPv4 multicast address.
MULTICAST_END = 0xF0000000   # 240.0.0.0
#: Total IPv4 multicast addresses (2^28).
MULTICAST_TOTAL = MULTICAST_END - MULTICAST_BASE


def ip_to_int(dotted: str) -> Addr:
    """Parse dotted-quad IPv4 into an int.

    Raises:
        ValueError: on malformed input.
    """
    parts = dotted.split(".")
    if len(parts) != 4:
        raise ValueError(f"bad IPv4 address {dotted!r}")
    value = 0
    for part in parts:
        octet = int(part)
        if not 0 <= octet <= 255:
            raise ValueError(f"bad IPv4 octet {part!r} in {dotted!r}")
        value = (value << 8) | octet
    return value


def int_to_ip(value: Addr) -> str:
    """Format an int as dotted-quad IPv4."""
    if not 0 <= value < 2 ** 32:
        raise ValueError(f"IPv4 value out of range: {value}")
    return ".".join(str((value >> shift) & 0xFF)
                    for shift in (24, 16, 8, 0))


@dataclass(frozen=True)
class MulticastAddressSpace:
    """A contiguous block of multicast addresses.

    Attributes:
        base: first address as a 32-bit int.
        size: number of addresses in the block.
        name: human-readable label.
    """

    base: Addr
    size: Count
    name: str = ""

    def __post_init__(self) -> None:
        if self.size <= 0:
            raise ValueError(f"size must be positive, got {self.size}")
        if not MULTICAST_BASE <= self.base < MULTICAST_END:
            raise ValueError(
                f"base {int_to_ip(self.base)} is not a multicast address"
            )
        if self.base + self.size > MULTICAST_END:
            raise ValueError("block extends past 239.255.255.255")

    # ------------------------------------------------------------------
    # Factories
    # ------------------------------------------------------------------
    @classmethod
    def sdr_dynamic(cls) -> "MulticastAddressSpace":
        """The 65 536-address dynamic range the paper cites (§4.1)."""
        return cls(ip_to_int("224.2.128.0"), 65_536, name="sdr-dynamic")

    @classmethod
    def admin_local_scope(cls) -> "MulticastAddressSpace":
        """The RFC 2365 IPv4 local scope, 239.255.0.0/16."""
        return cls(ip_to_int("239.255.0.0"), 65_536, name="admin-local")

    @classmethod
    def full_ipv4(cls) -> "MulticastAddressSpace":
        """All 2^28 IPv4 multicast addresses."""
        return cls(MULTICAST_BASE, MULTICAST_TOTAL, name="ipv4-multicast")

    @classmethod
    def abstract(cls, size: Count) -> "MulticastAddressSpace":
        """An anonymous space of ``size`` addresses for simulations.

        Placed inside the sdr dynamic range when it fits, otherwise at
        the bottom of multicast space.
        """
        base = ip_to_int("224.2.128.0") if size <= 65_536 else MULTICAST_BASE
        return cls(base, size, name=f"abstract-{size}")

    # ------------------------------------------------------------------
    # Index <-> address mapping
    # ------------------------------------------------------------------
    def contains_index(self, index: SlotIndex) -> bool:
        return 0 <= index < self.size

    def contains_address(self, addr: Addr) -> bool:
        """True when ``addr`` falls inside this block."""
        return self.base <= addr < self.base + self.size

    def index_to_address(self, index: SlotIndex) -> Addr:
        """Absolute 32-bit address for dense index ``index``.

        The int-level twin of :meth:`index_to_ip` — the array-backed
        core works in ints and only formats dotted quads at the edge.

        Raises:
            IndexError: if ``index`` is outside ``0..size-1``.
        """
        if not self.contains_index(index):
            raise IndexError(f"index {index} outside space of {self.size}")
        return self.base + index

    def address_to_index(self, addr: Addr) -> SlotIndex:
        """Dense index for an absolute 32-bit address.

        Raises:
            ValueError: if the address is outside this block.
        """
        index = addr - self.base
        if not self.contains_index(index):
            raise ValueError(
                f"{int_to_ip(addr)} is outside {self.name or 'block'}"
            )
        return index

    def index_to_ip(self, index: SlotIndex) -> str:
        """Dotted-quad address for dense index ``index``."""
        return int_to_ip(self.index_to_address(index))

    def ip_to_index(self, dotted: str) -> SlotIndex:
        """Dense index for a dotted-quad address.

        Raises:
            ValueError: if the address is outside this block.
        """
        value = ip_to_int(dotted)
        index = value - self.base
        if not self.contains_index(index):
            raise ValueError(f"{dotted} is outside {self.name or 'block'}")
        return index

    def __len__(self) -> int:
        return self.size

    def __repr__(self) -> str:
        first = int_to_ip(self.base)
        last = int_to_ip(self.base + self.size - 1)
        return f"MulticastAddressSpace({first}..{last}, size={self.size})"
