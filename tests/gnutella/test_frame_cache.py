"""Encode-once fan-out: header patching, lazy parse, the frame cache."""

from collections import Counter

import pytest

from repro.gnutella import messages
from repro.gnutella.constants import HEADER_LENGTH
from repro.gnutella.guid import GUID_LENGTH
from repro.gnutella.messages import (FrameCache, Header, HitResult,
                                     MessageError, Ping, Pong, Query,
                                     QueryHit, frame, parse_frame,
                                     parse_header, patch_ttl_hops)

GUID_A = bytes(range(16))
GUID_B = bytes(range(16, 32))


def _query(criteria="malware sample"):
    return Query(min_speed_kbps=0, criteria=criteria)


def _hit():
    return QueryHit(
        port=6346, address="10.0.0.1", speed_kbps=350,
        results=(HitResult(file_index=1, file_size=57344,
                           filename="setup.exe"),),
        servent_guid=GUID_B)


class TestPatchTtlHops:
    @pytest.mark.parametrize("message", [
        _query(), _hit(), Ping(),
        Pong(port=6346, address="10.0.0.2", file_count=3,
             kbytes_shared=44),
    ])
    def test_patch_equals_reencode(self, message):
        raw = frame(GUID_A, message, ttl=7, hops=0)
        for ttl, hops in ((6, 1), (1, 6), (3, 3)):
            assert patch_ttl_hops(raw, ttl, hops) == \
                frame(GUID_A, message, ttl=ttl, hops=hops)

    def test_patch_changes_only_header_bytes(self):
        raw = frame(GUID_A, _query(), ttl=5, hops=2)
        patched = patch_ttl_hops(raw, 4, 3)
        header = Header.decode(patched)
        assert (header.ttl, header.hops) == (4, 3)
        assert patched[HEADER_LENGTH:] == raw[HEADER_LENGTH:]
        assert patched[:GUID_LENGTH + 1] == raw[:GUID_LENGTH + 1]

    def test_accepts_memoryview_without_materializing(self):
        # receive paths holding a view into a larger buffer patch
        # straight through it
        raw = frame(GUID_A, _query(), ttl=5, hops=2)
        view = memoryview(b"junk" + raw + b"junk")[4:4 + len(raw)]
        assert patch_ttl_hops(view, 4, 3) == patch_ttl_hops(raw, 4, 3)
        assert isinstance(patch_ttl_hops(view, 4, 3), bytes)

    def test_out_of_range_values_rejected(self):
        # both twins refuse a TTL or hops outside one byte the same way
        raw = frame(GUID_A, _query(), ttl=5, hops=2)
        for bad in (256, -1):
            for ttl, hops in ((bad, 0), (0, bad)):
                with pytest.raises(MessageError):
                    patch_ttl_hops(raw, ttl, hops)
                with pytest.raises(MessageError):
                    frame(GUID_A, _query(), ttl=ttl, hops=hops)
        assert patch_ttl_hops(raw, 255, 0) == frame(GUID_A, _query(),
                                                    ttl=255, hops=0)


class TestParseHeader:
    def test_accepts_what_parse_frame_accepts(self):
        raw = frame(GUID_A, _query(), ttl=3, hops=1)
        header = parse_header(raw)
        full_header, payload = parse_frame(raw)
        assert header == full_header
        assert raw[HEADER_LENGTH:] == payload

    @pytest.mark.parametrize("raw", [
        b"", b"short",
        frame(GUID_A, _query(), ttl=3, hops=1)[:-1],  # truncated payload
        frame(GUID_A, _query(), ttl=3, hops=1) + b"x",  # trailing junk
    ])
    def test_rejects_what_parse_frame_rejects(self, raw):
        with pytest.raises(MessageError):
            parse_frame(raw)
        with pytest.raises(MessageError):
            parse_header(raw)


@pytest.fixture
def calls(monkeypatch):
    """How often the cache encoded a body (``frame``) and stamped a new
    header variant (``patch``)."""
    counts = Counter(frame=0, patch=0)

    def counted(name, function):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return function(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(messages, "frame", counted("frame", frame))
    monkeypatch.setattr(messages, "patch_ttl_hops",
                        counted("patch", patch_ttl_hops))
    return counts


class TestFrameCache:
    def test_miss_then_hits(self, calls):
        cache = FrameCache()
        query = _query()
        first = cache.frame(GUID_A, query, ttl=7, hops=0)
        assert calls == {"frame": 1, "patch": 0}
        again = cache.frame(GUID_A, query, ttl=7, hops=0)
        assert again == first
        patched = cache.frame(GUID_A, query, ttl=2, hops=3)
        assert calls == {"frame": 1, "patch": 1}
        assert patched == frame(GUID_A, query, ttl=2, hops=3)

    def test_byte_identical_to_plain_frame(self):
        cache = FrameCache()
        query = _query()
        for ttl, hops in ((7, 0), (6, 1), (2, 2), (7, 0)):
            assert cache.frame(GUID_A, query, ttl=ttl, hops=hops) == \
                frame(GUID_A, query, ttl=ttl, hops=hops)

    def test_identity_check_not_equality(self, calls):
        cache = FrameCache()
        cache.frame(GUID_A, _query("one"), ttl=7, hops=0)
        # equal guid, different (even equal-valued) object: re-encode
        cache.frame(GUID_A, _query("one"), ttl=7, hops=0)
        assert calls == {"frame": 2, "patch": 0}

    def test_reused_guid_overwrites_entry(self):
        cache = FrameCache()
        cache.frame(GUID_A, _query("one"), ttl=7, hops=0)
        replacement = _query("two")
        raw = cache.frame(GUID_A, replacement, ttl=7, hops=0)
        assert raw == frame(GUID_A, replacement, ttl=7, hops=0)
        assert len(cache) == 1

    def test_fifo_eviction_at_capacity(self, calls):
        cache = FrameCache(capacity=2)
        queries = {guid: _query(f"q{guid[0]}")
                   for guid in (GUID_A, GUID_B, bytes(range(32, 48)))}
        for guid, query in queries.items():
            cache.frame(guid, query, ttl=7, hops=0)
        assert len(cache) == 2
        # the oldest (GUID_A) was evicted; re-framing it misses
        cache.frame(GUID_A, queries[GUID_A], ttl=7, hops=0)
        assert calls == {"frame": 4, "patch": 0}

    def test_capacity_validated(self):
        with pytest.raises(ValueError):
            FrameCache(capacity=0)

    def test_repeat_stamping_returns_cached_object(self, calls):
        # the variant memo: fanning out at the same (ttl, hops) must
        # return the exact cached bytes object -- zero copies
        cache = FrameCache()
        query = _query()
        cache.frame(GUID_A, query, ttl=7, hops=0)
        first = cache.frame(GUID_A, query, ttl=6, hops=1)
        assert calls["patch"] == 1
        for _ in range(3):
            assert cache.frame(GUID_A, query, ttl=6, hops=1) is first
        assert calls["patch"] == 1  # stamped once, reused thereafter

    def test_variants_are_byte_identical_to_frame(self, calls):
        cache = FrameCache()
        query = _query()
        stampings = ((7, 0), (6, 1), (7, 0), (5, 2), (6, 1))
        for ttl, hops in stampings:
            assert cache.frame(GUID_A, query, ttl=ttl, hops=hops) == \
                frame(GUID_A, query, ttl=ttl, hops=hops)
        assert calls["frame"] == 1  # body encoded exactly once
        assert calls["patch"] == 2  # two new stampings beyond the first
