"""Binary packet codec for OpenFT.

Wire format (giFT/OpenFT style): a 4-byte header ``length(2 BE) |
command(2 BE)`` followed by ``length`` bytes of payload.  Payload fields
are packed big-endian with NUL-terminated strings, matching OpenFT's
``ft_packet_put_*`` conventions.

Each packet class round-trips through ``encode``/``decode``; the dispatch
table in :func:`decode_packet` mirrors :mod:`repro.gnutella.messages`.
"""

from __future__ import annotations

import functools
import socket
import struct
from dataclasses import dataclass
from typing import NamedTuple, Tuple

from .constants import (FT_ADDSHARE_REQUEST, FT_BROWSE_REQUEST,
                        FT_BROWSE_RESPONSE, FT_CHILD_REQUEST,
                        FT_CHILD_RESPONSE, FT_NODEINFO_REQUEST,
                        FT_NODEINFO_RESPONSE, FT_NODELIST_REQUEST,
                        FT_NODELIST_RESPONSE, FT_PUSH_REQUEST,
                        FT_REMSHARE_REQUEST, FT_SEARCH_REQUEST,
                        FT_SEARCH_RESPONSE, FT_SHARE_SYNC_END,
                        FT_STATS_REQUEST, FT_STATS_RESPONSE,
                        FT_VERSION_REQUEST, FT_VERSION_RESPONSE)

__all__ = ["PacketError", "VersionRequest", "VersionResponse",
           "NodeInfoRequest", "NodeInfoResponse", "NodeListRequest",
           "NodeListEntry", "NodeListResponse", "ChildRequest",
           "ChildResponse", "AddShare", "RemShare", "ShareSyncEnd",
           "StatsRequest", "StatsResponse", "SearchRequest",
           "SearchResponse", "BrowseRequest", "BrowseResponse",
           "PushRequest", "encode_packet", "decode_packet",
           "parse_packet_header", "patch_search_ttl",
           "PACKET_HEADER_LENGTH", "SEARCH_ID_OFFSET", "SEARCH_TTL_OFFSET"]

#: ``length(2 BE) | command(2 BE)`` -- every packet starts with these.
PACKET_HEADER_LENGTH = 4
#: SearchRequest/SearchResponse payloads open with the 4-byte search id.
SEARCH_ID_OFFSET = PACKET_HEADER_LENGTH
#: SearchRequest ttl sits right after the search id (see its ``encode``).
SEARCH_TTL_OFFSET = SEARCH_ID_OFFSET + 4
#: distinct payloads :meth:`AddShare.decode` remembers.  A 1-day world
#: decodes ~53,500 AddShare payloads that hold ~6,500 distinct ones (a
#: child re-sends its whole library at every session up); 4,096 entries
#: answer 80% of the decodes from the memo
ADDSHARE_MEMO_SIZE = 4096


class PacketError(ValueError):
    """Raised on malformed OpenFT packets."""


def _pack_string(value: str) -> bytes:
    encoded = value.encode("utf-8", errors="replace")
    if b"\x00" in encoded:
        raise PacketError(f"string field contains NUL: {value!r}")
    return encoded + b"\x00"


def _unpack_string(buffer: bytes, offset: int) -> Tuple[str, int]:
    end = buffer.find(b"\x00", offset)
    if end < 0:
        raise PacketError("string field not NUL-terminated")
    return buffer[offset:end].decode("utf-8", errors="replace"), end + 1


def _pack_ip(address: str) -> bytes:
    try:
        return socket.inet_aton(address)
    except OSError as exc:
        raise PacketError(f"bad IPv4 address {address!r}") from exc


def _unpack_ip(buffer: bytes, offset: int) -> Tuple[str, int]:
    if len(buffer) - offset < 4:
        raise PacketError("truncated IPv4 field")
    return socket.inet_ntoa(buffer[offset:offset + 4]), offset + 4


# The packets without fields are dataclasses, the rest NamedTuples: a
# record with no fields would be an empty tuple, which is falsy.
@dataclass(frozen=True)
class VersionRequest:
    """Ask a peer for its protocol version."""

    command = FT_VERSION_REQUEST

    def encode(self) -> bytes:
        return b""

    @staticmethod
    def decode(payload: bytes) -> "VersionRequest":
        return VersionRequest()


class VersionResponse(NamedTuple):
    """Protocol version advertisement."""

    major: int
    minor: int
    micro: int
    revision: int

    command = FT_VERSION_RESPONSE

    def encode(self) -> bytes:
        return struct.pack(">HHHH", self.major, self.minor, self.micro,
                           self.revision)

    @staticmethod
    def decode(payload: bytes) -> "VersionResponse":
        if len(payload) < 8:
            raise PacketError("short version response")
        return VersionResponse(*struct.unpack_from(">HHHH", payload))


@dataclass(frozen=True)
class NodeInfoRequest:
    """Ask a peer for its class/ports."""

    command = FT_NODEINFO_REQUEST

    def encode(self) -> bytes:
        return b""

    @staticmethod
    def decode(payload: bytes) -> "NodeInfoRequest":
        return NodeInfoRequest()


class NodeInfoResponse(NamedTuple):
    """Class bitmask plus the two listening ports."""

    klass: int
    port: int
    http_port: int
    alias: str

    command = FT_NODEINFO_RESPONSE

    def encode(self) -> bytes:
        return (struct.pack(">HHH", self.klass, self.port, self.http_port)
                + _pack_string(self.alias))

    @staticmethod
    def decode(payload: bytes) -> "NodeInfoResponse":
        if len(payload) < 7:
            raise PacketError("short nodeinfo response")
        klass, port, http_port = struct.unpack_from(">HHH", payload)
        alias, _ = _unpack_string(payload, 6)
        return NodeInfoResponse(klass=klass, port=port, http_port=http_port,
                                alias=alias)


@dataclass(frozen=True)
class NodeListRequest:
    """Ask a SEARCH/INDEX node which other nodes it knows."""

    command = FT_NODELIST_REQUEST

    def encode(self) -> bytes:
        return b""

    @staticmethod
    def decode(payload: bytes) -> "NodeListRequest":
        return NodeListRequest()


class NodeListEntry(NamedTuple):
    """One advertised node: where it listens and what classes it runs."""

    host: str
    port: int
    klass: int

    def encode(self) -> bytes:
        return _pack_ip(self.host) + struct.pack(">HH", self.port,
                                                 self.klass)

    @staticmethod
    def decode_from(buffer: bytes, offset: int) -> Tuple["NodeListEntry",
                                                         int]:
        if len(buffer) - offset < 8:
            raise PacketError("truncated nodelist entry")
        host, offset = _unpack_ip(buffer, offset)
        port, klass = struct.unpack_from(">HH", buffer, offset)
        return NodeListEntry(host=host, port=port, klass=klass), offset + 4


class NodeListResponse(NamedTuple):
    """The node list (count-prefixed entries)."""

    entries: Tuple[NodeListEntry, ...]

    command = FT_NODELIST_RESPONSE

    def encode(self) -> bytes:
        if len(self.entries) > 0xFFFF:
            raise PacketError("nodelist too large")
        parts = [struct.pack(">H", len(self.entries))]
        parts.extend(entry.encode() for entry in self.entries)
        return b"".join(parts)

    @staticmethod
    def decode(payload: bytes) -> "NodeListResponse":
        if len(payload) < 2:
            raise PacketError("short nodelist response")
        count = struct.unpack_from(">H", payload)[0]
        offset = 2
        entries = []
        for _ in range(count):
            entry, offset = NodeListEntry.decode_from(payload, offset)
            entries.append(entry)
        return NodeListResponse(entries=tuple(entries))


@dataclass(frozen=True)
class ChildRequest:
    """A USER node asking a SEARCH node to adopt it as a child."""

    command = FT_CHILD_REQUEST

    def encode(self) -> bytes:
        return b""

    @staticmethod
    def decode(payload: bytes) -> "ChildRequest":
        return ChildRequest()


class ChildResponse(NamedTuple):
    """SEARCH node's accept/reject of a child request."""

    accepted: bool

    command = FT_CHILD_RESPONSE

    def encode(self) -> bytes:
        return struct.pack(">H", 1 if self.accepted else 0)

    @staticmethod
    def decode(payload: bytes) -> "ChildResponse":
        if len(payload) < 2:
            raise PacketError("short child response")
        return ChildResponse(accepted=bool(struct.unpack_from(
            ">H", payload)[0]))


class AddShare(NamedTuple):
    """Child -> parent share registration (one file)."""

    size: int
    md5: str
    filename: str

    command = FT_ADDSHARE_REQUEST

    def encode(self) -> bytes:
        if len(self.md5) != 32:
            raise PacketError(f"md5 must be 32 hex chars, got {self.md5!r}")
        return (struct.pack(">I", min(self.size, 0xFFFFFFFF))
                + bytes.fromhex(self.md5) + _pack_string(self.filename))

    @staticmethod
    @functools.lru_cache(maxsize=ADDSHARE_MEMO_SIZE)
    def decode(payload: bytes) -> "AddShare":
        """The packet of ``payload``, decoded once per distinct payload
        (the packet is frozen, so every delivery may share it).  A
        malformed payload raises on every call: the memo keeps no
        exception."""
        if len(payload) < 21:
            raise PacketError("short addshare")
        size = struct.unpack_from(">I", payload)[0]
        md5 = payload[4:20].hex()
        filename, _ = _unpack_string(payload, 20)
        return AddShare(size=size, md5=md5, filename=filename)


class RemShare(NamedTuple):
    """Child -> parent share removal by content hash."""

    md5: str

    command = FT_REMSHARE_REQUEST

    def encode(self) -> bytes:
        return bytes.fromhex(self.md5)

    @staticmethod
    def decode(payload: bytes) -> "RemShare":
        if len(payload) < 16:
            raise PacketError("short remshare")
        return RemShare(md5=payload[:16].hex())


@dataclass(frozen=True)
class ShareSyncEnd:
    """Marks the end of a share synchronization burst."""

    command = FT_SHARE_SYNC_END

    def encode(self) -> bytes:
        return b""

    @staticmethod
    def decode(payload: bytes) -> "ShareSyncEnd":
        return ShareSyncEnd()


@dataclass(frozen=True)
class StatsRequest:
    """Ask an INDEX node for network statistics."""

    command = FT_STATS_REQUEST

    def encode(self) -> bytes:
        return b""

    @staticmethod
    def decode(payload: bytes) -> "StatsRequest":
        return StatsRequest()


class StatsResponse(NamedTuple):
    """Network statistics (users, shares, total size in GB)."""

    users: int
    shares: int
    gigabytes: int

    command = FT_STATS_RESPONSE

    def encode(self) -> bytes:
        return struct.pack(">III", self.users, self.shares, self.gigabytes)

    @staticmethod
    def decode(payload: bytes) -> "StatsResponse":
        if len(payload) < 12:
            raise PacketError("short stats response")
        return StatsResponse(*struct.unpack_from(">III", payload))


class SearchRequest(NamedTuple):
    """Keyword search.

    ``search_id`` correlates responses; ``ttl`` controls mesh fan-out
    (searches hop at most once between SEARCH nodes).
    """

    search_id: int
    ttl: int
    query: str

    command = FT_SEARCH_REQUEST

    def encode(self) -> bytes:
        return (struct.pack(">IH", self.search_id, self.ttl)
                + _pack_string(self.query))

    @staticmethod
    def decode(payload: bytes) -> "SearchRequest":
        if len(payload) < 7:
            raise PacketError("short search request")
        search_id, ttl = struct.unpack_from(">IH", payload)
        query, _ = _unpack_string(payload, 6)
        return SearchRequest(search_id=search_id, ttl=ttl, query=query)


class SearchResponse(NamedTuple):
    """One search result (or the end-of-results sentinel).

    ``host`` is the serving node's self-reported address.  An empty
    ``md5`` marks end-of-results for ``search_id``, as OpenFT signalled
    completion with a null result.
    """

    search_id: int
    host: str
    port: int
    http_port: int
    availability: int
    size: int
    md5: str
    filename: str

    command = FT_SEARCH_RESPONSE

    @staticmethod
    def end_marker(search_id: int) -> "SearchResponse":
        """The sentinel closing a result stream."""
        return SearchResponse(search_id=search_id, host="0.0.0.0", port=0,
                              http_port=0, availability=0, size=0, md5="",
                              filename="")

    @property
    def is_end_marker(self) -> bool:
        """True when this response closes the stream."""
        return not self.md5

    def encode(self) -> bytes:
        md5_raw = bytes.fromhex(self.md5) if self.md5 else b"\x00" * 16
        has_md5 = 1 if self.md5 else 0
        return (struct.pack(">IB", self.search_id, has_md5)
                + _pack_ip(self.host)
                + struct.pack(">HHII", self.port, self.http_port,
                              self.availability,
                              min(self.size, 0xFFFFFFFF))
                + md5_raw + _pack_string(self.filename))

    @staticmethod
    def decode(payload: bytes) -> "SearchResponse":
        if len(payload) < 38:
            raise PacketError("short search response")
        search_id, has_md5 = struct.unpack_from(">IB", payload)
        host, offset = _unpack_ip(payload, 5)
        port, http_port, availability, size = struct.unpack_from(
            ">HHII", payload, offset)
        offset += 12
        md5 = payload[offset:offset + 16].hex() if has_md5 else ""
        offset += 16
        filename, _ = _unpack_string(payload, offset)
        return SearchResponse(search_id, host, port, http_port, availability,
                              size, md5, filename)


class BrowseRequest(NamedTuple):
    """Ask a host for its full share list."""

    browse_id: int

    command = FT_BROWSE_REQUEST

    def encode(self) -> bytes:
        return struct.pack(">I", self.browse_id)

    @staticmethod
    def decode(payload: bytes) -> "BrowseRequest":
        if len(payload) < 4:
            raise PacketError("short browse request")
        return BrowseRequest(browse_id=struct.unpack_from(">I", payload)[0])


class BrowseResponse(NamedTuple):
    """One browsed share (empty md5 = end of listing)."""

    browse_id: int
    size: int
    md5: str
    filename: str

    command = FT_BROWSE_RESPONSE

    @staticmethod
    def end_marker(browse_id: int) -> "BrowseResponse":
        """The sentinel closing a browse listing."""
        return BrowseResponse(browse_id=browse_id, size=0, md5="",
                              filename="")

    @property
    def is_end_marker(self) -> bool:
        """True when this response closes the listing."""
        return not self.md5

    def encode(self) -> bytes:
        md5_raw = bytes.fromhex(self.md5) if self.md5 else b"\x00" * 16
        has_md5 = 1 if self.md5 else 0
        return (struct.pack(">IBI", self.browse_id, has_md5,
                            min(self.size, 0xFFFFFFFF))
                + md5_raw + _pack_string(self.filename))

    @staticmethod
    def decode(payload: bytes) -> "BrowseResponse":
        if len(payload) < 26:
            raise PacketError("short browse response")
        browse_id, has_md5, size = struct.unpack_from(">IBI", payload)
        md5 = payload[9:25].hex() if has_md5 else ""
        filename, _ = _unpack_string(payload, 25)
        return BrowseResponse(browse_id=browse_id, size=size, md5=md5,
                              filename=filename)


class PushRequest(NamedTuple):
    """Ask a firewalled host to connect out for a download."""

    host: str
    port: int
    md5: str

    command = FT_PUSH_REQUEST

    def encode(self) -> bytes:
        return (_pack_ip(self.host) + struct.pack(">H", self.port)
                + bytes.fromhex(self.md5))

    @staticmethod
    def decode(payload: bytes) -> "PushRequest":
        if len(payload) < 22:
            raise PacketError("short push request")
        host, offset = _unpack_ip(payload, 0)
        port = struct.unpack_from(">H", payload, offset)[0]
        md5 = payload[offset + 2:offset + 18].hex()
        return PushRequest(host=host, port=port, md5=md5)


_DECODERS = {
    FT_VERSION_REQUEST: VersionRequest.decode,
    FT_VERSION_RESPONSE: VersionResponse.decode,
    FT_NODEINFO_REQUEST: NodeInfoRequest.decode,
    FT_NODEINFO_RESPONSE: NodeInfoResponse.decode,
    FT_NODELIST_REQUEST: NodeListRequest.decode,
    FT_NODELIST_RESPONSE: NodeListResponse.decode,
    FT_CHILD_REQUEST: ChildRequest.decode,
    FT_CHILD_RESPONSE: ChildResponse.decode,
    FT_ADDSHARE_REQUEST: AddShare.decode,
    FT_REMSHARE_REQUEST: RemShare.decode,
    FT_SHARE_SYNC_END: ShareSyncEnd.decode,
    FT_STATS_REQUEST: StatsRequest.decode,
    FT_STATS_RESPONSE: StatsResponse.decode,
    FT_SEARCH_REQUEST: SearchRequest.decode,
    FT_SEARCH_RESPONSE: SearchResponse.decode,
    FT_BROWSE_REQUEST: BrowseRequest.decode,
    FT_BROWSE_RESPONSE: BrowseResponse.decode,
    FT_PUSH_REQUEST: PushRequest.decode,
}


def encode_packet(packet) -> bytes:
    """Frame a packet: ``length(2 BE) | command(2 BE) | payload``."""
    payload = packet.encode()
    if len(payload) > 0xFFFF:
        raise PacketError(f"payload too large: {len(payload)}")
    return struct.pack(">HH", len(payload), packet.command) + payload


def decode_packet(raw: bytes):
    """Parse framed bytes back into a packet object."""
    if len(raw) < 4:
        raise PacketError(f"short packet: {len(raw)} bytes")
    length, command = struct.unpack_from(">HH", raw)
    payload = raw[4:]
    if len(payload) != length:
        raise PacketError(
            f"length mismatch: header says {length}, got {len(payload)}")
    decoder = _DECODERS.get(command)
    if decoder is None:
        raise PacketError(f"unknown command 0x{command:04x}")
    return decoder(payload)


def parse_packet_header(raw) -> Tuple[int, int]:
    """``(command, payload_length)`` without decoding the payload.

    Applies exactly the framing checks :func:`decode_packet` applies
    (short packet, declared-vs-actual length, known command), so a
    packet accepted here is a packet ``decode_packet`` would hand to a
    payload decoder.  Lazy receivers dispatch on the command and decode
    only when a handler needs payload fields.

    ``raw`` may be ``bytes``, ``bytearray`` or a ``memoryview``:
    ``struct.unpack_from`` reads the four header bytes straight out of
    the underlying buffer, so a receiver holding a view into a larger
    batch never materializes the packet just to dispatch on it.
    """
    if len(raw) < PACKET_HEADER_LENGTH:
        raise PacketError(f"short packet: {len(raw)} bytes")
    length, command = struct.unpack_from(">HH", raw)
    if len(raw) - PACKET_HEADER_LENGTH != length:
        raise PacketError(
            f"length mismatch: header says {length}, "
            f"got {len(raw) - PACKET_HEADER_LENGTH}")
    if command not in _DECODERS:
        raise PacketError(f"unknown command 0x{command:04x}")
    return command, length


def patch_search_ttl(raw, ttl: int) -> bytes:
    """Re-stamp a framed SearchRequest's ttl without re-encoding.

    The ttl is the only field a forwarding SEARCH node changes, and it
    sits at a fixed offset (search id is fixed-width), so stamping the
    two ttl bytes produces the same bytes a decode/re-encode would.

    One buffer copy plus an in-place ``struct.pack_into`` -- the old
    three-slice splice built four transient objects and copied the
    body twice.  ``raw`` may be ``bytes``, ``bytearray`` or a
    ``memoryview``.
    """
    patched = bytearray(raw)
    struct.pack_into(">H", patched, SEARCH_TTL_OFFSET, ttl)
    return bytes(patched)
