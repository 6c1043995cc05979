"""Payload-length floors of the two receive paths.

Two floors are receiver code: a relayed QueryHit (< 27 bytes) and a
relayed SearchResponse (< 38) are forwarded undecoded, so the receivers
reject them by payload length alone.  The rest are the decoders' own:
Gnutella Pong (< 14), Push (< 26) and Bye (< 3), and OpenFT
SearchRequest (< 7) and BrowseResponse (< 26), which the receivers
decode on arrival.  Each floor must match the decoder's: a frame one
byte under it counts exactly one decode error (and ``decode_payload`` /
``decode_packet`` rejects it), while a frame exactly at the floor (which
the decoder accepts) and an encoder-produced frame of the same type
count none.
"""

import struct

import pytest

from repro.gnutella.constants import (DESCRIPTOR_BYE, DESCRIPTOR_PONG,
                                      DESCRIPTOR_PUSH, DESCRIPTOR_QUERY_HIT)
from repro.gnutella.messages import (Bye, Header, HitResult, MessageError,
                                     Pong, Push, QueryHit, decode_payload,
                                     frame)
from repro.gnutella.servent import GnutellaServent
from repro.openft.constants import (FT_BROWSE_RESPONSE, FT_SEARCH_REQUEST,
                                    FT_SEARCH_RESPONSE)
from repro.openft.nodes import OpenFTNode
from repro.openft.packets import (BrowseResponse, PacketError,
                                  SearchRequest, SearchResponse,
                                  decode_packet, encode_packet)
from repro.simnet.addresses import AddressAllocator
from repro.simnet.kernel import Simulator
from repro.simnet.transport import Transport

GUID = bytes(range(16))
MD5 = "0123456789abcdef0123456789abcdef"

#: type -> (descriptor type, payload floor, an encodable message)
GNUTELLA = {
    "bye": (DESCRIPTOR_BYE, 3, Bye(code=200, reason="Session closed")),
    "pong": (DESCRIPTOR_PONG, 14,
             Pong(port=6346, address="10.0.0.1", file_count=3,
                  kbytes_shared=99)),
    "push": (DESCRIPTOR_PUSH, 26,
             Push(servent_guid=GUID, file_index=1, address="10.0.0.2",
                  port=6346)),
    "query-hit": (DESCRIPTOR_QUERY_HIT, 27,
                  QueryHit(port=6346, address="10.0.0.3", speed_kbps=350,
                           results=(HitResult(1, 100, "a.exe"),),
                           servent_guid=GUID)),
}

#: type -> (command, payload floor, an encodable packet)
OPENFT = {
    "search-request": (FT_SEARCH_REQUEST, 7,
                       SearchRequest(search_id=7, ttl=1, query="r exe")),
    "search-response": (FT_SEARCH_RESPONSE, 38,
                        SearchResponse(search_id=7, host="10.0.0.4",
                                       port=1215, http_port=1216,
                                       availability=1, size=9, md5=MD5,
                                       filename="r.exe")),
    "browse-response": (FT_BROWSE_RESPONSE, 26,
                        BrowseResponse(browse_id=7, size=9, md5=MD5,
                                       filename="r.exe")),
}


def _errors_after(node_class, raw):
    """Deliver ``raw`` to a fresh node; return its decode-error count."""
    sim = Simulator(seed=1)
    transport = Transport(sim)
    address = AddressAllocator(sim.stream("addr")).allocate()
    node = node_class(sim, transport, "node", address)
    transport.attach("peer", lambda envelope: None)
    assert transport.send("peer", "node", raw)
    sim.run_until(10.0)
    return node.stats.decode_errors


@pytest.mark.parametrize("name", sorted(GNUTELLA))
def test_gnutella_floor(name):
    descriptor_type, floor, message = GNUTELLA[name]

    def zero_frame(length):
        header = Header(guid=GUID, descriptor_type=descriptor_type, ttl=3,
                        hops=1, payload_length=length)
        return header, header.encode() + bytes(length)

    header, raw = zero_frame(floor - 1)
    with pytest.raises(MessageError):
        decode_payload(header, bytes(floor - 1))
    assert _errors_after(GnutellaServent, raw) == 1
    header, raw = zero_frame(floor)
    decode_payload(header, bytes(floor))
    assert _errors_after(GnutellaServent, raw) == 0
    assert _errors_after(GnutellaServent,
                         frame(GUID, message, ttl=3, hops=1)) == 0


@pytest.mark.parametrize("name", sorted(OPENFT))
def test_openft_floor(name):
    command, floor, packet = OPENFT[name]

    def zero_packet(length):
        return struct.pack(">HH", length, command) + bytes(length)

    with pytest.raises(PacketError):
        decode_packet(zero_packet(floor - 1))
    assert _errors_after(OpenFTNode, zero_packet(floor - 1)) == 1
    decode_packet(zero_packet(floor))
    assert _errors_after(OpenFTNode, zero_packet(floor)) == 0
    assert _errors_after(OpenFTNode, encode_packet(packet)) == 0
