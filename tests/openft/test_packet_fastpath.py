"""Lazy header parse + ttl splicing for the OpenFT data-plane fast path."""

import struct

import pytest

from repro.openft.packets import (PACKET_HEADER_LENGTH, SEARCH_ID_OFFSET,
                                  SEARCH_TTL_OFFSET, PacketError,
                                  SearchRequest, SearchResponse,
                                  decode_packet, encode_packet,
                                  parse_packet_header, patch_search_ttl)

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


class TestPatchSearchTtl:
    def test_patch_equals_reencode(self):
        raw = encode_packet(_search(ttl=3))
        for ttl in (2, 1, 0):
            expected = encode_packet(_search()._replace(ttl=ttl))
            assert patch_search_ttl(raw, ttl) == expected

    def test_patch_touches_only_the_ttl_bytes(self):
        raw = encode_packet(_search(ttl=5))
        patched = patch_search_ttl(raw, 4)
        assert patched[:SEARCH_TTL_OFFSET] == raw[:SEARCH_TTL_OFFSET]
        assert patched[SEARCH_TTL_OFFSET + 2:] == raw[SEARCH_TTL_OFFSET + 2:]
        assert decode_packet(patched).ttl == 4

    def test_accepts_memoryview_without_materializing(self):
        raw = encode_packet(_search(ttl=5))
        view = memoryview(b"xx" + raw + b"yy")[2:2 + len(raw)]
        assert patch_search_ttl(view, 4) == patch_search_ttl(raw, 4)
        assert isinstance(patch_search_ttl(view, 4), bytes)

    def test_out_of_range_ttl_rejected(self):
        raw = encode_packet(_search(ttl=5))
        with pytest.raises(struct.error):
            patch_search_ttl(raw, 0x10000)
