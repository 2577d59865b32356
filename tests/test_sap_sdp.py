"""SDP-lite parse/format tests."""

import pytest
from hypothesis import given, strategies as st

from repro.sap import sdp
from repro.sap.sdp import MediaStream, SessionDescription

SAMPLE = """v=0
o=mjh 3472 1 IN IP4 224.2.130.9
s=ISI seminar
i=Weekly systems seminar
t=3086100000 3086107200
c=IN IP4 224.2.130.9/127
a=tool:sdr-repro
m=audio 49170 RTP/AVP 0
m=video 51372 RTP/AVP 31
"""


class TestParseMemo:
    """Parses of one text share a memoised record, never a description."""

    def test_two_parses_are_equal_but_distinct(self):
        first = SessionDescription.parse(SAMPLE)
        second = SessionDescription.parse(SAMPLE)
        assert first == second
        assert first is not second
        assert first.attributes is not second.attributes
        assert first.media is not second.media

    def test_mutating_a_parse_does_not_reach_the_next(self):
        first = SessionDescription.parse(SAMPLE)
        first.version += 1
        first.attributes.append("recvonly")
        first.media.append(MediaStream("text", 5004))
        second = SessionDescription.parse(SAMPLE)
        assert second.version == 1
        assert second.attributes == ["tool:sdr-repro"]
        assert [stream.media for stream in second.media] == \
            ["audio", "video"]

    @pytest.mark.parametrize("text", [
        "garbage", "v=1\ns=x\n", "v=0\no=bad\n", "v=0\nt=0\ns=x\n",
        "v=0\nm=audio\ns=x\n", "v=0\ns=\n",
        "v=0\ns=x\nc=IN IP4 224.2.128.1/300\n"])
    def test_malformed_text_raises_on_every_call(self, text):
        for __ in range(3):
            with pytest.raises(ValueError):
                SessionDescription.parse(text)

    def test_memo_stays_at_its_bound(self):
        for index in range(10_000):
            description = SessionDescription(name=f"s{index}")
            assert SessionDescription.parse(description.format()) == \
                description
        info = sdp._parse_record.cache_info()
        assert info.maxsize == sdp.PARSE_MEMO_SIZE
        assert info.currsize == sdp.PARSE_MEMO_SIZE


class TestMediaStream:
    def test_format_line(self):
        stream = MediaStream("audio", 49170)
        assert stream.format_line() == "m=audio 49170 RTP/AVP 0"

    def test_validation(self):
        with pytest.raises(ValueError):
            MediaStream("", 49170)
        with pytest.raises(ValueError):
            MediaStream("audio", 0)
        with pytest.raises(ValueError):
            MediaStream("audio", 70_000)


class TestParse:
    def test_sample_fields(self):
        desc = SessionDescription.parse(SAMPLE)
        assert desc.name == "ISI seminar"
        assert desc.username == "mjh"
        assert desc.session_id == 3472
        assert desc.version == 1
        assert desc.connection_address == "224.2.130.9"
        assert desc.ttl == 127
        assert desc.info == "Weekly systems seminar"
        assert desc.start == 3086100000
        assert desc.attributes == ["tool:sdr-repro"]
        assert len(desc.media) == 2
        assert desc.media[1].media == "video"
        assert desc.media[1].fmt == "31"

    def test_roundtrip(self):
        desc = SessionDescription.parse(SAMPLE)
        again = SessionDescription.parse(desc.format())
        assert again == desc

    def test_format_then_parse_minimal(self):
        desc = SessionDescription(name="test")
        assert SessionDescription.parse(desc.format()) == desc

    def test_connection_without_ttl(self):
        desc = SessionDescription.parse(
            "v=0\ns=x\nc=IN IP4 224.9.9.9\n"
        )
        assert desc.connection_address == "224.9.9.9"
        assert desc.ttl == 127  # default preserved

    def test_unknown_lines_ignored(self):
        desc = SessionDescription.parse("v=0\ns=x\nz=whatever\n")
        assert desc.name == "x"

    def test_missing_name_rejected(self):
        with pytest.raises(ValueError):
            SessionDescription.parse("v=0\nt=0 0\n")

    def test_malformed_line_rejected(self):
        with pytest.raises(ValueError):
            SessionDescription.parse("v=0\ns=x\nnonsense\n")

    def test_bad_version_rejected(self):
        with pytest.raises(ValueError):
            SessionDescription.parse("v=1\ns=x\n")

    def test_bad_origin_rejected(self):
        with pytest.raises(ValueError):
            SessionDescription.parse("v=0\no=u 1 1\ns=x\n")

    def test_bad_timing_rejected(self):
        with pytest.raises(ValueError):
            SessionDescription.parse("v=0\ns=x\nt=12\n")

    def test_bad_media_rejected(self):
        with pytest.raises(ValueError):
            SessionDescription.parse("v=0\ns=x\nm=audio 49170\n")

    def test_origin_key(self):
        desc = SessionDescription.parse(SAMPLE)
        assert desc.origin_key() == ("mjh", 3472)

    def test_validation_on_construction(self):
        with pytest.raises(ValueError):
            SessionDescription(name="")
        with pytest.raises(ValueError):
            SessionDescription(name="x", ttl=0)

    @given(
        name=st.text(
            alphabet=st.characters(min_codepoint=33, max_codepoint=126),
            min_size=1, max_size=20,
        ),
        ttl=st.integers(1, 255),
        session_id=st.integers(0, 10 ** 9),
        port=st.integers(1, 65_535),
    )
    def test_property_roundtrip(self, name, ttl, session_id, port):
        desc = SessionDescription(
            name=name, session_id=session_id, ttl=ttl,
            media=[MediaStream("audio", port)],
        )
        assert SessionDescription.parse(desc.format()) == desc
