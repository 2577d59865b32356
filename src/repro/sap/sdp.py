"""SDP-lite: the session description payload sdr announces.

A faithful-but-reduced subset of SDP as used by the Mbone session
directory: version, origin, name, optional info, one timing line, a
connection line carrying the multicast address and TTL scope, optional
attributes, and one or more media lines.

Example::

    v=0
    o=mjh 3472 1 IN IP4 224.2.130.9
    s=ISI seminar
    i=Weekly systems seminar
    t=3086100000 3086107200
    c=IN IP4 224.2.130.9/127
    a=tool:sdr-repro
    m=audio 49170 RTP/AVP 0
    m=video 51372 RTP/AVP 31
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

#: Distinct SDP texts whose parse is remembered.  The receivers of one
#: announcement parse its text within one fan-out window, so a few
#: dozen entries catch nearly every repeat (DESIGN §2).
PARSE_MEMO_SIZE = 32


@dataclass(frozen=True)
class MediaStream:
    """One ``m=`` line: media type, transport port, protocol, format."""

    media: str
    port: int
    proto: str = "RTP/AVP"
    fmt: str = "0"

    def __post_init__(self) -> None:
        if not self.media:
            raise ValueError("media type must be non-empty")
        if not 0 < self.port < 65536:
            raise ValueError(f"port {self.port} outside (0, 65536)")

    def format_line(self) -> str:
        return f"m={self.media} {self.port} {self.proto} {self.fmt}"


@dataclass
class SessionDescription:
    """A parsed/parseable SDP-lite description.

    Attributes:
        name: the ``s=`` session name.
        username: originator's username (``o=`` field 1).
        session_id: originator's session id (``o=`` field 2).
        version: description version, bumped on modification.
        origin_address: the originator's address string.
        connection_address: the session's multicast address.
        ttl: the session scope TTL (from ``c=.../<ttl>``).
        start: session start time (NTP-ish integer seconds).
        stop: session stop time (0 = unbounded).
        info: optional free-text ``i=`` line.
        attributes: ``a=`` lines without the prefix.
        media: the media streams.
    """

    name: str
    username: str = "-"
    session_id: int = 0
    version: int = 1
    origin_address: str = "127.0.0.1"
    connection_address: str = "224.2.128.1"
    ttl: int = 127
    start: int = 0
    stop: int = 0
    info: Optional[str] = None
    attributes: List[str] = field(default_factory=list)
    media: List[MediaStream] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("session name must be non-empty")
        if not 1 <= self.ttl <= 255:
            raise ValueError(f"ttl {self.ttl} outside [1, 255]")

    # ------------------------------------------------------------------
    # Formatting
    # ------------------------------------------------------------------
    def format(self) -> str:
        """Serialise to SDP-lite text."""
        lines = [
            "v=0",
            f"o={self.username} {self.session_id} {self.version} "
            f"IN IP4 {self.origin_address}",
            f"s={self.name}",
        ]
        if self.info:
            lines.append(f"i={self.info}")
        lines.append(f"t={self.start} {self.stop}")
        lines.append(f"c=IN IP4 {self.connection_address}/{self.ttl}")
        lines.extend(f"a={attr}" for attr in self.attributes)
        lines.extend(stream.format_line() for stream in self.media)
        return "\n".join(lines) + "\n"

    # ------------------------------------------------------------------
    # Parsing
    # ------------------------------------------------------------------
    @classmethod
    def parse(cls, text: str) -> "SessionDescription":
        """Parse SDP-lite text.

        Every receiver of an announcement parses the same text, so the
        parsed fields are remembered as an immutable record in a
        bounded memo.  Each call builds a fresh description from the
        record, with attribute and media lists of its own.

        Raises:
            ValueError: on structurally invalid input.
        """
        scalars, attributes, media = _parse_record(text)
        return cls(*scalars, list(attributes), list(media))

    @staticmethod
    def _parse_origin(value: str, fields: dict) -> None:
        parts = value.split()
        if len(parts) != 6 or parts[3] != "IN" or parts[4] != "IP4":
            raise ValueError(f"malformed o= line: {value!r}")
        fields["username"] = parts[0]
        fields["session_id"] = int(parts[1])
        fields["version"] = int(parts[2])
        fields["origin_address"] = parts[5]

    @staticmethod
    def _parse_timing(value: str, fields: dict) -> None:
        parts = value.split()
        if len(parts) != 2:
            raise ValueError(f"malformed t= line: {value!r}")
        fields["start"] = int(parts[0])
        fields["stop"] = int(parts[1])

    @staticmethod
    def _parse_connection(value: str, fields: dict) -> None:
        parts = value.split()
        if len(parts) != 3 or parts[0] != "IN" or parts[1] != "IP4":
            raise ValueError(f"malformed c= line: {value!r}")
        if "/" in parts[2]:
            address, ttl_text = parts[2].rsplit("/", 1)
            fields["connection_address"] = address
            fields["ttl"] = int(ttl_text)
        else:
            fields["connection_address"] = parts[2]

    @staticmethod
    def _parse_media(value: str) -> MediaStream:
        parts = value.split()
        if len(parts) < 4:
            raise ValueError(f"malformed m= line: {value!r}")
        return MediaStream(media=parts[0], port=int(parts[1]),
                           proto=parts[2], fmt=" ".join(parts[3:]))

    def origin_key(self) -> Tuple[str, int]:
        """(username, session_id): the announcement's identity."""
        return (self.username, self.session_id)


#: The description's fields before ``attributes`` and ``media``, which
#: come last, in constructor order.
_SCALAR_FIELDS = dataclasses.fields(SessionDescription)[:-2]


@functools.lru_cache(maxsize=PARSE_MEMO_SIZE)
def _parse_record(text: str) -> Tuple[tuple, Tuple[str, ...],
                                      Tuple[MediaStream, ...]]:
    """Parse SDP-lite text into an immutable record, memoised: the
    scalar field values in constructor order, the ``a=`` values and
    the frozen media streams."""
    fields: dict = {}
    attributes = []
    media = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if len(line) < 2 or line[1] != "=":
            raise ValueError(f"malformed SDP line: {line!r}")
        key, value = line[0], line[2:]
        if key == "v":
            if value != "0":
                raise ValueError(f"unsupported SDP version {value!r}")
        elif key == "o":
            SessionDescription._parse_origin(value, fields)
        elif key == "s":
            fields["name"] = value
        elif key == "i":
            fields["info"] = value
        elif key == "t":
            SessionDescription._parse_timing(value, fields)
        elif key == "c":
            SessionDescription._parse_connection(value, fields)
        elif key == "a":
            attributes.append(value)
        elif key == "m":
            media.append(SessionDescription._parse_media(value))
        else:
            # Unknown lines are ignored, as SDP parsers must.
            continue
    if "name" not in fields:
        raise ValueError("missing s= line")
    scalars = tuple(fields.get(f.name, f.default) for f in _SCALAR_FIELDS)
    return scalars, tuple(attributes), tuple(media)
