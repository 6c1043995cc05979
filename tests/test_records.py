"""The per-message records are NamedTuples that keep a frozen
dataclass's contract: no attribute can be assigned, and the hash is the
hash of the field tuple, so no set or dict keyed by a record moves."""

import pytest

from repro.files.catalog import FileVersion, Work
from repro.files.payload import Blob
from repro.files.types import FileType
from repro.gnutella.messages import (Bye, Header, HitResult, Pong, Push,
                                     Query, QueryHit)
from repro.gnutella.qrp import QrpPatch, QrpReset
from repro.openft.nodes import ShareRecord
from repro.openft.packets import (AddShare, BrowseRequest, BrowseResponse,
                                  ChildResponse, NodeInfoResponse,
                                  NodeListEntry, NodeListResponse,
                                  PushRequest, RemShare, SearchRequest,
                                  SearchResponse, StatsResponse,
                                  VersionResponse)

GUID = bytes(range(16))
MD5 = "0123456789abcdef0123456789abcdef"
HIT_RESULT = HitResult(file_index=1, file_size=10, filename="a.exe")
WORK = Work(work_id=3, file_type=FileType.AUDIO, keywords=("angel",))

RECORDS = [
    Header(GUID, 0x80, 7, 0, 12),
    Pong(port=6346, address="10.0.0.1", file_count=3, kbytes_shared=44),
    Bye(code=200, reason="Session closed"),
    Query(min_speed_kbps=0, criteria="madonna angel"),
    HIT_RESULT,
    QueryHit(port=6346, address="192.168.1.9", speed_kbps=350,
             results=(HIT_RESULT,), servent_guid=GUID),
    Push(servent_guid=GUID, file_index=9, address="8.8.4.4", port=6346),
    QrpReset(table_length=65536, infinity=7),
    QrpPatch(sequence_number=1, sequence_count=1, entry_bits=8,
             data=b"\x00\x01"),
    VersionResponse(0, 2, 1, 6),
    NodeInfoResponse(klass=3, port=1215, http_port=1216, alias="node"),
    NodeListEntry(host="1.2.3.4", port=1215, klass=3),
    NodeListResponse(entries=(NodeListEntry("1.2.3.4", 1215, 3),)),
    ChildResponse(accepted=True),
    AddShare(size=1000, md5=MD5, filename="file_a.exe"),
    RemShare(md5=MD5),
    StatsResponse(users=10, shares=500, gigabytes=3),
    SearchRequest(search_id=99, ttl=1, query="photoshop crack"),
    SearchResponse(search_id=99, host="10.0.0.1", port=1215, http_port=1216,
                   availability=2, size=12345, md5=MD5,
                   filename="result.zip"),
    BrowseRequest(browse_id=7),
    BrowseResponse(browse_id=7, size=55, md5=MD5, filename="b.exe"),
    PushRequest(host="8.8.8.8", port=1215, md5=MD5),
    ShareRecord(child_id="u1", host="10.0.0.1", port=1215, http_port=1216,
                availability=2, size=12345, md5=MD5, filename="result.zip"),
    WORK,
    FileVersion(version_id="w3v0", work=WORK, extension="mp3", size=4096,
                blob=Blob(content_key="catalog:w3v0", extension="mp3",
                          size=4096)),
]


def assert_same_record(decoded, original):
    """Tuple equality ignores the class, so a decoder that returned a
    plain tuple or the wrong record would pass ``==`` alone."""
    assert type(decoded) is type(original)
    assert decoded == original


@pytest.mark.parametrize("record", RECORDS,
                         ids=[type(record).__name__ for record in RECORDS])
def test_record_is_immutable_and_hashes_as_its_fields(record):
    with pytest.raises(AttributeError):
        setattr(record, record._fields[0], None)
    assert hash(record) == hash(tuple(record))
