"""Tests for the OpenFT packet codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.openft.packets import (AddShare, BrowseRequest, BrowseResponse,
                                  ChildRequest, ChildResponse,
                                  NodeInfoRequest, NodeInfoResponse,
                                  PacketError, PushRequest, RemShare,
                                  SearchRequest, SearchResponse,
                                  ShareSyncEnd, StatsRequest, StatsResponse,
                                  VersionRequest, VersionResponse,
                                  decode_packet, encode_packet)

from ..test_records import assert_same_record

MD5 = "0123456789abcdef0123456789abcdef"


def roundtrip(packet):
    return decode_packet(encode_packet(packet))


class TestRoundtrips:
    @pytest.mark.parametrize("packet", [
        VersionRequest(),
        VersionResponse(0, 2, 1, 6),
        NodeInfoRequest(),
        NodeInfoResponse(klass=3, port=1215, http_port=1216, alias="node"),
        ChildRequest(),
        ChildResponse(accepted=True),
        ChildResponse(accepted=False),
        AddShare(size=1000, md5=MD5, filename="file_a.exe"),
        RemShare(md5=MD5),
        ShareSyncEnd(),
        StatsRequest(),
        StatsResponse(users=10, shares=500, gigabytes=3),
        SearchRequest(search_id=99, ttl=1, query="photoshop crack"),
        SearchResponse(search_id=99, host="10.0.0.1", port=1215,
                       http_port=1216, availability=2, size=12345,
                       md5=MD5, filename="result.zip"),
        BrowseRequest(browse_id=7),
        BrowseResponse(browse_id=7, size=55, md5=MD5, filename="b.exe"),
        PushRequest(host="8.8.8.8", port=1215, md5=MD5),
    ])
    def test_roundtrip(self, packet):
        assert_same_record(roundtrip(packet), packet)

    def test_end_markers(self):
        end = SearchResponse.end_marker(42)
        assert end.is_end_marker
        assert_same_record(roundtrip(end), end)
        browse_end = BrowseResponse.end_marker(42)
        assert browse_end.is_end_marker
        assert_same_record(roundtrip(browse_end), browse_end)

    def test_non_end_marker(self):
        response = SearchResponse(search_id=1, host="1.2.3.4", port=1,
                                  http_port=2, availability=0, size=1,
                                  md5=MD5, filename="x")
        assert not response.is_end_marker


class TestNodeList:
    def test_roundtrip(self):
        from repro.openft.packets import NodeListEntry, NodeListResponse
        response = NodeListResponse(entries=(
            NodeListEntry(host="1.2.3.4", port=1215, klass=3),
            NodeListEntry(host="10.0.0.9", port=1216, klass=1),
        ))
        decoded = roundtrip(response)
        assert_same_record(decoded, response)
        for entry, expected in zip(decoded.entries, response.entries):
            assert_same_record(entry, expected)

    def test_empty_list(self):
        from repro.openft.packets import NodeListResponse
        assert roundtrip(NodeListResponse(entries=())).entries == ()

    def test_request_roundtrip(self):
        from repro.openft.packets import NodeListRequest
        assert_same_record(roundtrip(NodeListRequest()), NodeListRequest())

    def test_truncated_entry_rejected(self):
        from repro.openft.constants import FT_NODELIST_RESPONSE
        import struct
        payload = struct.pack(">H", 2) + b"\x01\x02\x03\x04\x00\x01\x00\x03"
        raw = struct.pack(">HH", len(payload), FT_NODELIST_RESPONSE) + payload
        with pytest.raises(PacketError):
            decode_packet(raw)


class TestErrors:
    def test_short_packet(self):
        with pytest.raises(PacketError):
            decode_packet(b"\x00")

    def test_length_mismatch(self):
        raw = encode_packet(ChildRequest())
        with pytest.raises(PacketError):
            decode_packet(raw + b"x")

    def test_unknown_command(self):
        with pytest.raises(PacketError):
            decode_packet(b"\x00\x00\xff\xff")

    def test_bad_md5_length(self):
        with pytest.raises(PacketError):
            encode_packet(AddShare(size=1, md5="abcd", filename="x"))

    def test_nul_in_string_rejected(self):
        with pytest.raises(PacketError):
            encode_packet(SearchRequest(search_id=1, ttl=1,
                                        query="bad\x00query"))

    def test_size_clamped(self):
        share = AddShare(size=2**40, md5=MD5, filename="big")
        assert roundtrip(share).size == 0xFFFFFFFF


@given(query=st.text(
    alphabet=st.characters(blacklist_characters="\x00",
                           blacklist_categories=("Cs",)),
    max_size=50),
    search_id=st.integers(min_value=0, max_value=2**32 - 1),
    ttl=st.integers(min_value=0, max_value=65535))
@settings(max_examples=80, deadline=None)
def test_search_request_roundtrip_property(query, search_id, ttl):
    packet = SearchRequest(search_id=search_id, ttl=ttl, query=query)
    assert_same_record(roundtrip(packet), packet)


@given(filename=st.text(
    alphabet=st.characters(blacklist_characters="\x00",
                           blacklist_categories=("Cs",)),
    min_size=1, max_size=40),
    size=st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=60, deadline=None)
def test_search_response_roundtrip_property(filename, size):
    packet = SearchResponse(search_id=1, host="172.16.4.5", port=1215,
                            http_port=1216, availability=1, size=size,
                            md5=MD5, filename=filename)
    assert_same_record(roundtrip(packet), packet)


#: well-formed AddShare payloads (any size, md5 and NUL-free name) and
#: arbitrary bytes, which are mostly malformed
_addshare_payloads = st.one_of(
    st.binary(max_size=48),
    st.builds(AddShare,
              size=st.integers(min_value=0, max_value=0xFFFFFFFF),
              md5=st.binary(min_size=16, max_size=16).map(bytes.hex),
              filename=st.text(max_size=30).filter(
                  lambda name: "\x00" not in name)).map(AddShare.encode))


class TestAddShareMemo:
    @given(_addshare_payloads)
    @settings(max_examples=200, deadline=None)
    def test_memo_equals_a_fresh_decode(self, payload):
        try:
            fresh = AddShare.decode.__wrapped__(payload)
        except PacketError:
            for _ in range(2):  # the memo keeps no exception
                with pytest.raises(PacketError):
                    AddShare.decode(payload)
            return
        decoded = AddShare.decode(payload)
        assert decoded == fresh
        assert AddShare.decode(bytes(bytearray(payload))) is decoded
        assert_same_record(decode_packet(encode_packet(fresh)), fresh)
