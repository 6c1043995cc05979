"""The OpenFT header-only parse that relayed SearchResponses take."""

import struct

import pytest

from repro.openft.packets import (PACKET_HEADER_LENGTH, SEARCH_ID_OFFSET,
                                  PacketError, SearchRequest, SearchResponse,
                                  decode_packet, encode_packet,
                                  parse_packet_header)

MD5 = "0123456789abcdef0123456789abcdef"


def _search(ttl=3):
    return SearchRequest(search_id=77, ttl=ttl, query="installer keygen")


class TestParsePacketHeader:
    def test_returns_command_and_length(self):
        raw = encode_packet(_search())
        command, length = parse_packet_header(raw)
        assert command == _search().command
        assert length == len(raw) - PACKET_HEADER_LENGTH

    @pytest.mark.parametrize("raw", [
        b"", b"\x00",
        encode_packet(_search())[:-1],   # truncated payload
        encode_packet(_search()) + b"x",  # trailing junk
        b"\x00\x00\xff\xff",             # unknown command
    ])
    def test_rejects_what_decode_packet_rejects(self, raw):
        with pytest.raises(PacketError):
            decode_packet(raw)
        with pytest.raises(PacketError):
            parse_packet_header(raw)

    def test_accepts_memoryview_without_materializing(self):
        raw = encode_packet(_search())
        view = memoryview(b"xx" + raw + b"yy")[2:2 + len(raw)]
        assert parse_packet_header(view) == parse_packet_header(raw)

    def test_search_id_lives_at_fixed_offset(self):
        raw = encode_packet(_search())
        search_id = struct.unpack_from(">I", raw, SEARCH_ID_OFFSET)[0]
        assert search_id == 77
        response = SearchResponse(search_id=123, host="10.0.0.9", port=1215,
                                  http_port=1216, availability=1, size=9,
                                  md5=MD5, filename="r.exe")
        raw = encode_packet(response)
        assert struct.unpack_from(">I", raw, SEARCH_ID_OFFSET)[0] == 123
