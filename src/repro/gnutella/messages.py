"""Binary codec for Gnutella 0.6 descriptors.

Wire format per the v0.6 specification:

* descriptor header: ``GUID(16) | type(1) | TTL(1) | hops(1) | length(4 LE)``
* Pong: ``port(2 LE) | IPv4(4 NBO) | files(4 LE) | kbytes(4 LE)``
* Query: ``min_speed(2 LE) | criteria NUL | extensions NUL``
* QueryHit: ``count(1) | port(2 LE) | IPv4(4 NBO) | speed(4 LE) | results...
  | QHD | servent GUID(16)`` with each result
  ``index(4 LE) | size(4 LE) | name NUL | extensions NUL``
* Push: ``servent GUID(16) | index(4 LE) | IPv4(4 NBO) | port(2 LE)``

Every descriptor class round-trips: ``decode(x.encode()) == x``.  The
collector consumes *decoded* QueryHits, so the self-reported address
semantics (including RFC 1918 advertisements) flow through real parsing.
"""

from __future__ import annotations

import functools
import socket
import struct
from dataclasses import dataclass
from typing import List, NamedTuple, Tuple

from .constants import (DESCRIPTOR_BYE, DESCRIPTOR_PING, DESCRIPTOR_PONG,
                        DESCRIPTOR_PUSH, DESCRIPTOR_QUERY,
                        DESCRIPTOR_QUERY_HIT, HEADER_LENGTH,
                        MAX_PAYLOAD_LENGTH, MAX_TTL)
from .guid import GUID_LENGTH

__all__ = ["MessageError", "Header", "Ping", "Pong", "Bye", "Query",
           "HitResult", "QueryHit", "Push", "frame", "parse_frame",
           "parse_header", "patch_ttl_hops", "decode_payload",
           "FrameCache", "TTL_OFFSET", "HOPS_OFFSET"]

#: Byte offsets of the mutable header fields: GUID(16) | type(1) puts
#: TTL at 17 and hops at 18 (see :class:`Header`).
TTL_OFFSET = GUID_LENGTH + 1
HOPS_OFFSET = GUID_LENGTH + 2
#: distinct payloads :meth:`Query.decode` remembers.  The crawler's
#: queries come from a short list, so a 1.5-day world floods ~53,700
#: Query payloads that hold ~50 distinct ones
QUERY_MEMO_SIZE = 256
#: GUID | type | TTL | hops | payload length, in :class:`Header` order
_HEADER = struct.Struct("<16sBBBI")


class MessageError(ValueError):
    """Raised on malformed descriptors."""


def _pack_ip(address: str) -> bytes:
    try:
        return socket.inet_aton(address)
    except OSError as exc:
        raise MessageError(f"bad IPv4 address {address!r}") from exc


def _unpack_ip(raw: bytes) -> str:
    if len(raw) != 4:
        raise MessageError(f"IPv4 field must be 4 bytes, got {len(raw)}")
    return socket.inet_ntoa(raw)


class Header(NamedTuple):
    """The 23-byte descriptor header."""

    guid: bytes
    descriptor_type: int
    ttl: int
    hops: int
    payload_length: int

    def encode(self) -> bytes:
        if len(self.guid) != GUID_LENGTH:
            raise MessageError(f"GUID must be {GUID_LENGTH} bytes")
        return _HEADER.pack(*self)

    @staticmethod
    def decode(raw: bytes) -> "Header":
        if len(raw) < HEADER_LENGTH:
            raise MessageError(f"short header: {len(raw)} bytes")
        header = Header._make(_HEADER.unpack_from(raw))
        if header.payload_length > MAX_PAYLOAD_LENGTH:
            raise MessageError(
                f"payload length {header.payload_length} too large")
        if header.ttl + header.hops > 2 * MAX_TTL:
            raise MessageError(
                f"ttl({header.ttl})+hops({header.hops}) out of range")
        return header


# A dataclass, not a NamedTuple like the other descriptors: a record
# with no fields would be an empty tuple, which is falsy.
@dataclass(frozen=True)
class Ping:
    """Keep-alive / host discovery probe; empty payload."""

    def encode(self) -> bytes:
        return b""

    @staticmethod
    def decode(payload: bytes) -> "Ping":
        # Modern servents may append GGEP to pings; tolerate trailing bytes.
        return Ping()

    descriptor_type = DESCRIPTOR_PING


class Pong(NamedTuple):
    """Ping response advertising a servent and its shared-library size."""

    port: int
    address: str
    file_count: int
    kbytes_shared: int

    descriptor_type = DESCRIPTOR_PONG

    def encode(self) -> bytes:
        return (struct.pack("<H", self.port) + _pack_ip(self.address)
                + struct.pack("<II", self.file_count, self.kbytes_shared))

    @staticmethod
    def decode(payload: bytes) -> "Pong":
        if len(payload) < 14:
            raise MessageError(f"pong payload too short: {len(payload)}")
        port = struct.unpack("<H", payload[0:2])[0]
        address = _unpack_ip(payload[2:6])
        file_count, kbytes = struct.unpack("<II", payload[6:14])
        return Pong(port=port, address=address, file_count=file_count,
                    kbytes_shared=kbytes)


class Bye(NamedTuple):
    """Graceful-disconnect notice (code + human-readable reason).

    Sent with TTL 1 immediately before closing a connection, so the
    neighbour can clean up state (e.g. an ultrapeer dropping the leaf's
    QRP table) instead of waiting for a timeout.
    """

    code: int
    reason: str

    descriptor_type = DESCRIPTOR_BYE

    def encode(self) -> bytes:
        return (struct.pack("<H", self.code)
                + self.reason.encode("utf-8", errors="replace") + b"\x00")

    @staticmethod
    def decode(payload: bytes) -> "Bye":
        if len(payload) < 3:
            raise MessageError(f"bye payload too short: {len(payload)}")
        code = struct.unpack_from("<H", payload)[0]
        end = payload.find(b"\x00", 2)
        if end < 0:
            raise MessageError("bye reason not NUL-terminated")
        return Bye(code=code,
                   reason=payload[2:end].decode("utf-8", errors="replace"))


class Query(NamedTuple):
    """Keyword search descriptor.

    ``extensions`` carries HUGE/GGEP data between the two NULs; a plain
    ``urn:sha1:`` request asks responders to include content urns, which
    Limewire always did and our collector relies on for download dedup.
    """

    min_speed_kbps: int
    criteria: str
    extensions: str = "urn:sha1:"

    descriptor_type = DESCRIPTOR_QUERY

    def encode(self) -> bytes:
        criteria = self.criteria.encode("utf-8", errors="replace")
        extensions = self.extensions.encode("ascii", errors="replace")
        return (struct.pack("<H", self.min_speed_kbps)
                + criteria + b"\x00" + extensions + b"\x00")

    @staticmethod
    @functools.lru_cache(maxsize=QUERY_MEMO_SIZE)
    def decode(payload: bytes) -> "Query":
        """The descriptor of ``payload``, decoded once per distinct
        payload (the descriptor is frozen, so every hop may share it).
        A malformed payload raises on every call: the memo keeps no
        exception."""
        if len(payload) < 3:
            raise MessageError(f"query payload too short: {len(payload)}")
        min_speed = struct.unpack("<H", payload[0:2])[0]
        body = payload[2:]
        first_nul = body.find(b"\x00")
        if first_nul < 0:
            raise MessageError("query criteria not NUL-terminated")
        criteria = body[:first_nul].decode("utf-8", errors="replace")
        rest = body[first_nul + 1:]
        second_nul = rest.find(b"\x00")
        extensions = (rest[:second_nul] if second_nul >= 0 else rest)
        return Query(min_speed_kbps=min_speed, criteria=criteria,
                     extensions=extensions.decode("ascii", errors="replace"))


class HitResult(NamedTuple):
    """One shared file inside a QueryHit."""

    file_index: int
    file_size: int
    filename: str
    sha1_urn: str = ""

    def encode(self) -> bytes:
        name = self.filename.encode("utf-8", errors="replace")
        extensions = self.sha1_urn.encode("ascii", errors="replace")
        return (struct.pack("<II", self.file_index,
                            min(self.file_size, 0xFFFFFFFF))
                + name + b"\x00" + extensions + b"\x00")

    @staticmethod
    def decode_from(buffer: bytes, offset: int) -> Tuple["HitResult", int]:
        if len(buffer) - offset < 10:
            raise MessageError("truncated hit result")
        file_index, file_size = struct.unpack_from("<II", buffer, offset)
        offset += 8
        name_end = buffer.find(b"\x00", offset)
        if name_end < 0:
            raise MessageError("hit filename not NUL-terminated")
        filename = buffer[offset:name_end].decode("utf-8", errors="replace")
        offset = name_end + 1
        ext_end = buffer.find(b"\x00", offset)
        if ext_end < 0:
            raise MessageError("hit extensions not NUL-terminated")
        sha1_urn = buffer[offset:ext_end].decode("ascii", errors="replace")
        return HitResult(file_index=file_index, file_size=file_size,
                         filename=filename, sha1_urn=sha1_urn), ext_end + 1


# QHD flag bits (flags byte declares, controls byte sets; a bit is
# meaningful when present in both -- we encode the common servent pattern).
_QHD_PUSH = 0x01
_QHD_BUSY = 0x04
_QHD_UPLOADED = 0x08
_QHD_SPEED_MEASURED = 0x10


class QueryHit(NamedTuple):
    """Response descriptor listing matching files.

    ``address``/``port`` are **self-reported** by the responder -- the crux
    of the paper's private-address finding -- and ``servent_guid`` allows
    PUSH-routed downloads to NATed responders.
    """

    port: int
    address: str
    speed_kbps: int
    results: Tuple[HitResult, ...]
    servent_guid: bytes
    vendor: bytes = b"LIME"
    push_needed: bool = False
    busy: bool = False
    #: QHD private area (modern servents put a GGEP frame here)
    private_data: bytes = b""

    descriptor_type = DESCRIPTOR_QUERY_HIT

    def encode(self) -> bytes:
        if not 0 < len(self.results) <= 255:
            raise MessageError(f"query hit needs 1..255 results, "
                               f"got {len(self.results)}")
        if len(self.servent_guid) != GUID_LENGTH:
            raise MessageError("servent GUID must be 16 bytes")
        if len(self.vendor) != 4:
            raise MessageError("vendor code must be 4 bytes")
        flags = _QHD_PUSH | _QHD_BUSY | _QHD_UPLOADED | _QHD_SPEED_MEASURED
        controls = ((_QHD_PUSH if self.push_needed else 0)
                    | (_QHD_BUSY if self.busy else 0))
        parts = [struct.pack("<BH", len(self.results), self.port),
                 _pack_ip(self.address),
                 struct.pack("<I", self.speed_kbps)]
        parts.extend(result.encode() for result in self.results)
        parts.append(self.vendor + bytes([2, flags, controls]))
        parts.append(self.private_data)
        parts.append(self.servent_guid)
        return b"".join(parts)

    @staticmethod
    def decode(payload: bytes) -> "QueryHit":
        if len(payload) < 11 + GUID_LENGTH:
            raise MessageError(f"query hit too short: {len(payload)}")
        count, port = struct.unpack_from("<BH", payload, 0)
        address = _unpack_ip(payload[3:7])
        speed = struct.unpack_from("<I", payload, 7)[0]
        offset = 11
        results: List[HitResult] = []
        for _ in range(count):
            result, offset = HitResult.decode_from(payload, offset)
            results.append(result)
        servent_guid = payload[-GUID_LENGTH:]
        trailer = payload[offset:-GUID_LENGTH]
        vendor, push_needed, busy = b"????", False, False
        private_data = b""
        if len(trailer) >= 7:
            vendor = trailer[:4]
            open_data_size = trailer[4]
            if open_data_size >= 2 and len(trailer) >= 7:
                flags, controls = trailer[5], trailer[6]
                push_needed = bool(flags & controls & _QHD_PUSH)
                busy = bool(flags & controls & _QHD_BUSY)
            private_data = trailer[5 + open_data_size:]
        return QueryHit(port=port, address=address, speed_kbps=speed,
                        results=tuple(results), servent_guid=servent_guid,
                        vendor=vendor, push_needed=push_needed, busy=busy,
                        private_data=private_data)


class Push(NamedTuple):
    """Firewalled-download request routed back to a NATed responder."""

    servent_guid: bytes
    file_index: int
    address: str
    port: int

    descriptor_type = DESCRIPTOR_PUSH

    def encode(self) -> bytes:
        if len(self.servent_guid) != GUID_LENGTH:
            raise MessageError("servent GUID must be 16 bytes")
        return (self.servent_guid + struct.pack("<I", self.file_index)
                + _pack_ip(self.address) + struct.pack("<H", self.port))

    @staticmethod
    def decode(payload: bytes) -> "Push":
        if len(payload) < GUID_LENGTH + 10:
            raise MessageError(f"push payload too short: {len(payload)}")
        servent_guid = payload[:GUID_LENGTH]
        file_index = struct.unpack_from("<I", payload, GUID_LENGTH)[0]
        address = _unpack_ip(payload[GUID_LENGTH + 4:GUID_LENGTH + 8])
        port = struct.unpack_from("<H", payload, GUID_LENGTH + 8)[0]
        return Push(servent_guid=servent_guid, file_index=file_index,
                    address=address, port=port)


_DECODERS = {
    DESCRIPTOR_PING: Ping.decode,
    DESCRIPTOR_PONG: Pong.decode,
    DESCRIPTOR_BYE: Bye.decode,
    DESCRIPTOR_QUERY: Query.decode,
    DESCRIPTOR_QUERY_HIT: QueryHit.decode,
    DESCRIPTOR_PUSH: Push.decode,
}


def frame(guid: bytes, message, ttl: int, hops: int = 0) -> bytes:
    """Wrap a message body in a descriptor header, producing wire bytes.

    A TTL or hops outside one byte (0..255) raises :class:`MessageError`,
    as it does in :func:`patch_ttl_hops`.
    """
    if not (0 <= ttl <= 0xFF and 0 <= hops <= 0xFF):
        raise MessageError(f"ttl {ttl!r} or hops {hops!r} not in 0..255")
    payload = message.encode()
    header = Header(guid, message.descriptor_type, ttl, hops, len(payload))
    return header.encode() + payload


def parse_frame(raw: bytes) -> Tuple[Header, bytes]:
    """Split wire bytes into (header, payload), validating lengths."""
    header = Header.decode(raw)
    payload = raw[HEADER_LENGTH:]
    if len(payload) != header.payload_length:
        raise MessageError(
            f"payload length mismatch: header says {header.payload_length}, "
            f"got {len(payload)}")
    return header, payload


def parse_header(raw: bytes) -> Header:
    """Decode and validate the header without slicing the payload off.

    Applies every check :func:`parse_frame` applies -- including the
    declared-vs-actual payload length -- but leaves the payload bytes in
    place, so lazy receivers (forwarders that never look at the body)
    skip the copy.  A frame accepted here is exactly a frame
    :func:`parse_frame` would accept.
    """
    header = Header.decode(raw)
    if len(raw) - HEADER_LENGTH != header.payload_length:
        raise MessageError(
            f"payload length mismatch: header says {header.payload_length}, "
            f"got {len(raw) - HEADER_LENGTH}")
    return header


def patch_ttl_hops(raw, ttl: int, hops: int) -> bytes:
    """Re-stamp a frame's TTL and hops without re-encoding the body.

    The descriptor header is fixed-layout (GUID | type | TTL | hops |
    length) and a forwarded descriptor differs from the received one in
    exactly those two bytes, so poking them produces the same bytes
    :func:`frame` would -- the encode-once contract forwarding rests
    on (asserted in tests against a decode/re-encode reference).

    One buffer copy and two byte stores; the old three-slice splice
    built four transient objects and copied the body twice.  ``raw``
    may be ``bytes``, ``bytearray`` or a ``memoryview`` -- receive
    paths that hold views into a larger buffer can patch without
    materializing the frame first.  A TTL or hops outside one byte
    raises :class:`MessageError`, as it does in :func:`frame`.
    """
    if not (0 <= ttl <= 0xFF and 0 <= hops <= 0xFF):
        raise MessageError(f"ttl {ttl!r} or hops {hops!r} not in 0..255")
    patched = bytearray(raw)
    patched[TTL_OFFSET] = ttl
    patched[HOPS_OFFSET] = hops
    return bytes(patched)


class FrameCache:
    """Per-servent memo of encoded frames, keyed by descriptor GUID.

    A servent that fans the same descriptor out -- originating to every
    ultrapeer, probing the mesh round after round in a dynamic query --
    used to call :func:`frame` (a full body re-encode) once per
    recipient.  The cache keeps the encoded body per GUID plus a memo
    of every ``(ttl, hops)`` variant already stamped: fanning a
    descriptor out at the same ttl/hops -- the overwhelmingly common
    case, since one forwarding decision feeds a whole neighbour loop
    -- returns the exact cached ``bytes`` object, copying nothing.  A
    new variant pays one buffer copy and two byte pokes
    (:func:`patch_ttl_hops`), never a body re-encode or a three-slice
    splice.  Reuse demands the *same message object* (checked by
    identity, which is deterministic and never hashes large payloads);
    a different message under a reused GUID simply overwrites the
    entry.
    """

    __slots__ = ("_entries", "capacity")

    def __init__(self, capacity: int = 256) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be positive, got {capacity!r}")
        #: guid -> (message object, {(ttl, hops): encoded frame bytes}).
        #: The variant map stays tiny: ttl+hops is bounded by protocol
        #: rule, so a descriptor sees a handful of stampings at most.
        self._entries: dict = {}
        self.capacity = capacity

    def __len__(self) -> int:
        return len(self._entries)

    def frame(self, guid: bytes, message, ttl: int, hops: int = 0) -> bytes:
        """Encoded wire bytes for ``message``, body encoded at most once.

        Byte-identical to ``frame(guid, message, ttl, hops)`` for any
        (guid, message) pair, cached or not.
        """
        entry = self._entries.get(guid)
        key = (ttl, hops)
        if entry is not None and entry[0] is message:
            variants = entry[1]
            cached = variants.get(key)
            if cached is None:
                base = next(iter(variants.values()))
                cached = variants[key] = patch_ttl_hops(base, ttl, hops)
            return cached
        encoded = frame(guid, message, ttl=ttl, hops=hops)
        entries = self._entries
        if guid not in entries and len(entries) >= self.capacity:
            # FIFO eviction: dict preserves insertion order, so the
            # oldest GUID -- the one least likely to fan out again --
            # goes first, deterministically
            del entries[next(iter(entries))]
        entries[guid] = (message, {key: encoded})
        return encoded


def decode_payload(header: Header, payload: bytes):
    """Decode a payload according to the header's descriptor type."""
    decoder = _DECODERS.get(header.descriptor_type)
    if decoder is None:
        raise MessageError(
            f"unknown descriptor type 0x{header.descriptor_type:02x}")
    return decoder(payload)
