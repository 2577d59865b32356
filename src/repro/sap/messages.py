"""SAP packets (Session Announcement Protocol, RFC 2974-style).

A reduced binary encoding sufficient for the simulations and tests:

====== ======== ==========================================
offset size     field
====== ======== ==========================================
0      1        flags: version (3 bits) | type bit | C bit
1      1        reserved / auth length (always 0 here)
2      2        message id hash (big endian)
4      4        originating source (node id, big endian)
8      ...      UTF-8 SDP payload (zlib-compressed if C set)
====== ======== ==========================================

As in real SAP, the compression bit lets large descriptions ride in
one packet; :meth:`SapMessage.encode` takes ``compress=True`` and
:meth:`SapMessage.decode` handles both forms transparently.
"""

from __future__ import annotations

import enum
import functools
import struct
import zlib
from dataclasses import dataclass

#: SAP protocol version we emit.
SAP_VERSION = 1

_HEADER = struct.Struct(">BBHI")

#: Distinct packets whose decode is remembered.  A transmission
#: reaches every receiver in its scope within one fan-out window, so
#: a few dozen entries catch nearly every repeat (DESIGN §2).
DECODE_MEMO_SIZE = 32


class SapMessageType(enum.Enum):
    """Announcement or deletion."""

    ANNOUNCE = 0
    DELETE = 1


@dataclass(frozen=True)
class SapMessage:
    """One SAP packet.

    Attributes:
        msg_type: announcement or deletion.
        origin: originating node id.
        msg_id_hash: 16-bit hash identifying this version of the
            announcement (changes whenever the payload changes).
        payload: SDP-lite text.
    """

    msg_type: SapMessageType
    origin: int
    msg_id_hash: int
    payload: str

    def __post_init__(self) -> None:
        if not 0 <= self.msg_id_hash < 2 ** 16:
            raise ValueError(f"msg_id_hash {self.msg_id_hash} not 16-bit")
        if self.origin < 0:
            raise ValueError(f"negative origin {self.origin}")

    @classmethod
    def announce(cls, origin: int, payload: str) -> "SapMessage":
        """Build an announcement; the id hash is derived from payload."""
        return cls(SapMessageType.ANNOUNCE, origin,
                   payload_hash(payload), payload)

    @classmethod
    def delete(cls, origin: int, payload: str) -> "SapMessage":
        """Build a deletion for a previously announced payload."""
        return cls(SapMessageType.DELETE, origin,
                   payload_hash(payload), payload)

    def encode(self, compress: bool = False) -> bytes:
        """Serialise to wire format.

        Args:
            compress: set the C bit and zlib-compress the payload.
        """
        flags = (SAP_VERSION << 5) | (self.msg_type.value << 2)
        body = self.payload.encode("utf-8")
        if compress:
            flags |= 0x2  # the C bit
            body = zlib.compress(body)
        header = _HEADER.pack(flags, 0, self.msg_id_hash,
                              self.origin & 0xFFFFFFFF)
        return header + body

    @classmethod
    def decode(cls, data: bytes) -> "SapMessage":
        """Parse wire format (compressed or plain).

        The message is frozen, so receivers of one packet share the
        decode of its bytes (a bounded memo); malformed input raises
        on every call.

        Raises:
            ValueError: on truncated, wrong-version or corrupt packets.
        """
        return _decode(cls, bytes(data))

    def key(self) -> tuple:
        """Cache identity: (origin, msg id hash)."""
        return (self.origin, self.msg_id_hash)


@functools.lru_cache(maxsize=DECODE_MEMO_SIZE)
def _decode(cls: type, data: bytes) -> SapMessage:
    """The decode behind :meth:`SapMessage.decode`, memoised."""
    if len(data) < _HEADER.size:
        raise ValueError(f"SAP packet too short: {len(data)} bytes")
    flags, __, msg_id_hash, origin = _HEADER.unpack_from(data)
    version = flags >> 5
    if version != SAP_VERSION:
        raise ValueError(f"unsupported SAP version {version}")
    msg_type = SapMessageType((flags >> 2) & 0x1)
    body = data[_HEADER.size:]
    if flags & 0x2:
        try:
            body = zlib.decompress(body)
        except zlib.error as exc:
            raise ValueError(f"bad compressed payload: {exc}")
    try:
        payload = body.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValueError(f"payload is not UTF-8: {exc}")
    return cls(msg_type, origin, msg_id_hash, payload)


def payload_hash(payload: str) -> int:
    """Deterministic 16-bit hash of an announcement payload."""
    return zlib.crc32(payload.encode("utf-8")) & 0xFFFF
