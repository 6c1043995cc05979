"""Tests for the Gnutella binary codec."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gnutella.constants import (DESCRIPTOR_QUERY, DESCRIPTOR_QUERY_HIT,
                                      HEADER_LENGTH)
from repro.gnutella.guid import new_guid
from repro.gnutella.messages import (Header, HitResult, MessageError, Ping,
                                     Pong, Push, Query, QueryHit,
                                     decode_payload, frame, parse_frame)
from repro.simnet.rng import SeededStream

from ..test_records import assert_same_record

GUID = new_guid(SeededStream(1, "guid"))


class TestHeader:
    def test_roundtrip(self):
        header = Header(GUID, DESCRIPTOR_QUERY, ttl=4, hops=2,
                        payload_length=10)
        assert_same_record(Header.decode(header.encode() + b"\x00" * 10),
                           header)

    def test_length(self):
        header = Header(GUID, DESCRIPTOR_QUERY, 4, 0, 0)
        assert len(header.encode()) == HEADER_LENGTH

    def test_short_header_rejected(self):
        with pytest.raises(MessageError):
            Header.decode(b"short")

    def test_huge_payload_rejected(self):
        raw = Header(GUID, DESCRIPTOR_QUERY, 4, 0, 0).encode()
        tampered = raw[:19] + (10**9).to_bytes(4, "little")
        with pytest.raises(MessageError):
            Header.decode(tampered)

    def test_abusive_ttl_rejected(self):
        with pytest.raises(MessageError):
            Header.decode(Header(GUID, 0x00, 200, 200, 0).encode())


class TestPingPong:
    def test_ping_roundtrip(self):
        assert_same_record(Ping.decode(Ping().encode()), Ping())

    def test_pong_roundtrip(self):
        pong = Pong(port=6346, address="10.1.2.3", file_count=42,
                    kbytes_shared=1024)
        assert_same_record(Pong.decode(pong.encode()), pong)

    def test_pong_short_rejected(self):
        with pytest.raises(MessageError):
            Pong.decode(b"\x00\x01")


class TestQuery:
    def test_roundtrip(self):
        query = Query(min_speed_kbps=0, criteria="madonna angel",
                      extensions="urn:sha1:")
        assert_same_record(Query.decode(query.encode()), query)

    def test_utf8_criteria(self):
        query = Query(min_speed_kbps=0, criteria="café music")
        assert Query.decode(query.encode()).criteria == "café music"

    def test_missing_nul_rejected(self):
        with pytest.raises(MessageError):
            Query.decode(b"\x00\x00no-nul-here")

    def test_too_short_rejected(self):
        with pytest.raises(MessageError):
            Query.decode(b"\x00")

    @given(st.one_of(
        st.binary(max_size=40),
        st.builds(Query, min_speed_kbps=st.integers(0, 65535),
                  criteria=st.text(max_size=30),
                  extensions=st.text(max_size=10)).map(Query.encode)))
    @settings(max_examples=200, deadline=None)
    def test_memo_equals_a_fresh_decode(self, payload):
        try:
            fresh = Query.decode.__wrapped__(payload)
        except MessageError:
            for _ in range(2):  # the memo keeps no exception
                with pytest.raises(MessageError):
                    Query.decode(payload)
            return
        decoded = Query.decode(payload)
        assert decoded == fresh
        assert Query.decode(bytes(bytearray(payload))) is decoded


class TestQueryHit:
    def make_hit(self, push=False, busy=False, results=None):
        results = results or (
            HitResult(file_index=1, file_size=1000,
                      filename="file_a.exe", sha1_urn="urn:sha1:AAAA"),
            HitResult(file_index=2, file_size=2000,
                      filename="file b.zip", sha1_urn=""),
        )
        return QueryHit(port=6346, address="192.168.1.9", speed_kbps=350,
                        results=results, servent_guid=GUID,
                        vendor=b"LIME", push_needed=push, busy=busy)

    def test_roundtrip(self):
        hit = self.make_hit()
        decoded = QueryHit.decode(hit.encode())
        assert_same_record(decoded, hit)
        for result, expected in zip(decoded.results, hit.results):
            assert_same_record(result, expected)

    def test_flags_roundtrip(self):
        hit = self.make_hit(push=True, busy=True)
        decoded = QueryHit.decode(hit.encode())
        assert decoded.push_needed and decoded.busy

    def test_private_address_preserved(self):
        decoded = QueryHit.decode(self.make_hit().encode())
        assert decoded.address == "192.168.1.9"

    def test_size_clamped_to_32bit(self):
        result = HitResult(file_index=1, file_size=2**40,
                           filename="huge.zip", sha1_urn="")
        hit = self.make_hit(results=(result,))
        assert QueryHit.decode(hit.encode()).results[0].file_size == 0xFFFFFFFF

    def test_empty_results_rejected(self):
        hit = self.make_hit()
        broken = QueryHit(port=1, address="1.2.3.4", speed_kbps=1,
                          results=(), servent_guid=GUID)
        with pytest.raises(MessageError):
            broken.encode()

    def test_truncated_rejected(self):
        raw = self.make_hit().encode()
        with pytest.raises(MessageError):
            QueryHit.decode(raw[:10])

    def test_private_data_roundtrip(self):
        hit = QueryHit(port=1, address="1.2.3.4", speed_kbps=1,
                       results=(HitResult(1, 10, "a.exe", ""),),
                       servent_guid=GUID,
                       private_data=b"\xc3\x82VC\x85LIME\x44")
        decoded = QueryHit.decode(hit.encode())
        assert decoded.private_data == hit.private_data

    def test_ggep_in_private_data_parses(self):
        from repro.gnutella.ggep import (GgepBlock, decode_ggep,
                                         encode_ggep)
        frame_bytes = encode_ggep([GgepBlock("VC", b"LIME\x44")])
        hit = QueryHit(port=1, address="1.2.3.4", speed_kbps=1,
                       results=(HitResult(1, 10, "a.exe", ""),),
                       servent_guid=GUID, private_data=frame_bytes)
        decoded = QueryHit.decode(hit.encode())
        blocks, _ = decode_ggep(decoded.private_data)
        assert blocks[0].payload == b"LIME\x44"


class TestPush:
    def test_roundtrip(self):
        push = Push(servent_guid=GUID, file_index=9, address="8.8.4.4",
                    port=6346)
        assert_same_record(Push.decode(push.encode()), push)


class TestBye:
    def test_roundtrip(self):
        from repro.gnutella.messages import Bye
        bye = Bye(code=200, reason="Session closed")
        assert_same_record(Bye.decode(bye.encode()), bye)

    def test_frame_roundtrip(self):
        from repro.gnutella.messages import Bye
        bye = Bye(code=503, reason="Shutting down")
        header, payload = parse_frame(frame(GUID, bye, ttl=1))
        assert_same_record(decode_payload(header, payload), bye)

    def test_short_rejected(self):
        from repro.gnutella.messages import Bye
        with pytest.raises(MessageError):
            Bye.decode(b"\x00")

    def test_missing_nul_rejected(self):
        from repro.gnutella.messages import Bye
        with pytest.raises(MessageError):
            Bye.decode(b"\x00\x01no-nul")


class TestFraming:
    def test_frame_and_parse(self):
        query = Query(min_speed_kbps=0, criteria="test")
        raw = frame(GUID, query, ttl=4, hops=0)
        header, payload = parse_frame(raw)
        assert header.descriptor_type == DESCRIPTOR_QUERY
        assert_same_record(decode_payload(header, payload), query)

    def test_length_mismatch_rejected(self):
        raw = frame(GUID, Query(0, "x"), ttl=1, hops=0)
        with pytest.raises(MessageError):
            parse_frame(raw + b"extra")

    def test_unknown_descriptor_rejected(self):
        header = Header(GUID, 0x77, 1, 0, 0)
        with pytest.raises(MessageError):
            decode_payload(header, b"")

    def test_query_hit_frame(self):
        hit = QueryHit(port=1, address="1.2.3.4", speed_kbps=56,
                       results=(HitResult(1, 10, "a.exe", ""),),
                       servent_guid=GUID)
        header, payload = parse_frame(frame(GUID, hit, ttl=3, hops=1))
        assert header.descriptor_type == DESCRIPTOR_QUERY_HIT
        assert_same_record(decode_payload(header, payload), hit)


@given(criteria=st.text(
    alphabet=st.characters(blacklist_characters="\x00",
                           blacklist_categories=("Cs",)),
    min_size=0, max_size=60),
    speed=st.integers(min_value=0, max_value=65535))
@settings(max_examples=80, deadline=None)
def test_query_roundtrip_property(criteria, speed):
    query = Query(min_speed_kbps=speed, criteria=criteria)
    assert_same_record(Query.decode(query.encode()), query)


@given(filename=st.text(
    alphabet=st.characters(blacklist_characters="\x00",
                           blacklist_categories=("Cs",)),
    min_size=1, max_size=40),
    size=st.integers(min_value=0, max_value=0xFFFFFFFF),
    index=st.integers(min_value=0, max_value=0xFFFFFFFF))
@settings(max_examples=80, deadline=None)
def test_hit_result_roundtrip_property(filename, size, index):
    result = HitResult(file_index=index, file_size=size,
                       filename=filename, sha1_urn="urn:sha1:X")
    decoded, consumed = HitResult.decode_from(result.encode(), 0)
    assert_same_record(decoded, result)
    assert consumed == len(result.encode())
