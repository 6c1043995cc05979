"""Query Routing Protocol (QRP).

Leaves summarize their shared keywords into a hash bitmap (the query route
table, QRT) and send it to their ultrapeers; an ultrapeer forwards a query
to a leaf only when *every* query keyword hashes into a set slot.  This is
the mechanism that decides which leaves see which queries -- and the one
query-echo worms subverted by advertising an all-ones table so that every
query reached them.

The hash is the canonical QRP function (multiplicative hashing with
A = 0x4F1BBCDC, taking the top ``bits`` bits), and route tables ship as
RESET + uncompressed PATCH messages framed per the QRP spec's descriptor
type 0x30.

A table is held as the set of its set slots plus an all-ones flag: a leaf
shares tens of tokens, not 2^16, so matching a query is a subset check
and the 2^bits-entry bitmap exists only inside :meth:`to_messages` and
:meth:`from_messages`.  Each distinct token is hashed once per process.
"""

from __future__ import annotations

import functools
import struct
from dataclasses import dataclass
from typing import AbstractSet, Iterable, List, Optional, Set

from ..files.names import tokenize

__all__ = ["DEFAULT_TABLE_BITS", "qrp_hash", "query_slots",
           "QueryRouteTable", "QrpReset", "QrpPatch", "encode_qrp",
           "decode_qrp"]

#: 2^16 slots, Limewire's default leaf table size.
DEFAULT_TABLE_BITS = 16

_GOLDEN = 0x4F1BBCDC  # 2^32 * (sqrt(5)-1)/2, per the QRP spec
_MIN_TOKEN_LENGTH = 3  # servents ignored 1-2 letter tokens
#: the only patch entry width :meth:`QueryRouteTable.to_messages` writes
_ENTRY_BITS = 8
#: ``bytes.translate`` table mapping every set entry (non-zero) to 0x01
_SET_TO_ONE = b"\x00" + b"\x01" * 255


def qrp_hash(token: str, bits: int = DEFAULT_TABLE_BITS) -> int:
    """Hash a keyword to a table slot.

    Bytes of the lowercased token are XOR-folded into a 32-bit word (each
    byte shifted by 8*(i mod 4)), then multiplicatively hashed.
    """
    if not 0 < bits <= 32:
        raise ValueError(f"bits must be in 1..32, got {bits!r}")
    folded = 0
    for index, byte in enumerate(token.lower().encode("utf-8")):
        folded ^= (byte & 0xFF) << ((index % 4) * 8)
    product = (folded * _GOLDEN) & 0xFFFFFFFF
    return product >> (32 - bits)


@functools.lru_cache(maxsize=1 << 13)
def _token_hash(token: str) -> int:
    """``qrp_hash(token, 32)``, computed once per distinct token.

    A token's slot in a 2^bits table is the top ``bits`` bits of this
    word, so one memo serves every table size.  A miss looks ``qrp_hash``
    up by name, so rebinding it (to count calls, say) sees every token
    hashed.  Library names are drawn from a small vocabulary; the bound
    only caps a process that meets unbounded distinct tokens.
    """
    return qrp_hash(token, 32)


def _token_slots(tokens: Iterable[str], bits: int) -> Set[int]:
    """Slots of the routable (3+ letter) ``tokens`` in a 2^bits table."""
    shift = 32 - bits
    return {_token_hash(token) >> shift for token in tokens
            if len(token) >= _MIN_TOKEN_LENGTH}


def query_slots(query: str,
                bits: int = DEFAULT_TABLE_BITS) -> Optional[Set[int]]:
    """The slots ``query``'s routable tokens hash to in a 2^bits table.

    ``None`` when the query has no routable token: such queries (urn-only
    ones, or only 1-2 letter words) are forwarded to every leaf.
    """
    return _token_slots(tokenize(query), bits) or None


def _nonzero_offsets(bitmap: bytes) -> Set[int]:
    """Offsets of ``bitmap``'s set (non-zero) entries.

    memchr finds each 0x01 entry; when the bitmap rebuilt from those
    offsets compares equal, no entry holds another non-zero value, so
    only a bitmap that does pays for mapping its entries to 0x01 first.
    """
    slots = set()
    index = bitmap.find(1)
    while index != -1:
        slots.add(index)
        index = bitmap.find(1, index + 1)
    rebuilt = bytearray(len(bitmap))
    for slot in slots:
        rebuilt[slot] = 1
    if rebuilt != bitmap:
        return _nonzero_offsets(bitmap.translate(_SET_TO_ONE))
    return slots


class QueryRouteTable:
    """A leaf's keyword table: its set slots, or all of them."""

    def __init__(self, bits: int = DEFAULT_TABLE_BITS) -> None:
        if not 0 < bits <= 32:
            raise ValueError(f"bits must be in 1..32, got {bits!r}")
        self.bits = bits
        self.size = 1 << bits
        self._slots: Set[int] = set()
        self._all_ones = False

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, QueryRouteTable):
            return NotImplemented
        return (self.bits == other.bits and self._all_ones == other._all_ones
                and (self._all_ones or self._slots == other._slots))

    @property
    def set_count(self) -> int:
        """Number of set slots (diagnostics / tests)."""
        return self.size if self._all_ones else len(self._slots)

    def add_keyword(self, token: str) -> None:
        """Mark one keyword present."""
        self._slots.add(_token_hash(token) >> (32 - self.bits))

    def add_tokens(self, tokens: Iterable[str]) -> None:
        """Mark every routable token of an already-tokenized name set
        (a library's token index)."""
        self._slots |= _token_slots(tokens, self.bits)

    def add_name(self, name: str) -> None:
        """Mark every routable token of a file name."""
        self.add_tokens(tokenize(name))

    def build_from(self, names: Iterable[str]) -> None:
        """(Re)build from a library's file names."""
        self._slots = set()
        self._all_ones = False
        for name in names:
            self.add_name(name)

    def mark_all(self) -> None:
        """Set every slot -- the echo-worm trick to receive all queries."""
        self._slots = set()
        self._all_ones = True

    def admits(self, slots: Optional[AbstractSet[int]]) -> bool:
        """QRP forwarding decision for a query whose :func:`query_slots`
        in a table of this size are ``slots``."""
        return self._all_ones or slots is None or slots <= self._slots

    def might_match(self, query: str) -> bool:
        """QRP forwarding decision for ``query``.

        True when every routable query token is present.  Queries with no
        routable token are conservatively forwarded (spec behaviour for
        urn-only queries).
        """
        return self.admits(query_slots(query, self.bits))

    # -- wire form ---------------------------------------------------------
    def to_messages(self, fragment_slots: int = 2048,
                    compress: bool = False) -> List:
        """Serialize as one RESET plus PATCH fragments.

        ``compress=True`` marks the patches zlib-compressed (servents
        negotiated this; mostly-empty leaf tables compress enormously).
        """
        compressor = COMPRESSOR_ZLIB if compress else COMPRESSOR_NONE
        if self._all_ones:
            bitmap = b"\x01" * self.size
        else:
            bitmap = bytearray(self.size)
            for slot in self._slots:
                bitmap[slot] = 1
        view = memoryview(bitmap)
        starts = range(0, self.size, fragment_slots)
        return [QrpReset(self.size, 7), *[
            QrpPatch(number, len(starts), _ENTRY_BITS,
                     bytes(view[start:start + fragment_slots]), compressor)
            for number, start in enumerate(starts, 1)]]

    @staticmethod
    def from_messages(messages: Iterable) -> "QueryRouteTable":
        """Rebuild a table from a RESET + PATCH stream.

        Raises ``ValueError`` for a stream that does not open with a
        RESET, a table length that is not a power of two, a patch out of
        its 1..N sequence, a sequence count that changes mid-stream,
        entries that are not 8-bit, patches that overrun the table, or a
        sequence that ends before its last patch (a servent applies a
        table only after patch N of N; a RESET alone clears the table).
        Memory follows the patch bytes received, not the declared length.
        """
        table: Optional[QueryRouteTable] = None
        received = bytearray()
        count = expected = 0
        for message in messages:
            if isinstance(message, QrpPatch):
                if table is None:
                    raise ValueError("QRP stream must open with a RESET")
                if expected == 1:
                    count = message.sequence_count
                elif message.sequence_count != count:
                    raise ValueError("QRP sequence count changed mid-stream")
                if message.sequence_number != expected or expected > count:
                    raise ValueError(
                        f"QRP patch {message.sequence_number} out of "
                        f"sequence (expected {expected} of {count})")
                if message.entry_bits != _ENTRY_BITS:
                    raise ValueError(
                        f"unsupported QRP entry_bits {message.entry_bits}")
                if len(received) + len(message.data) > table.size:
                    raise ValueError("QRP patch overruns table")
                received += message.data
                expected += 1
            elif isinstance(message, QrpReset):
                length = message.table_length
                if length <= 0 or length & (length - 1):
                    raise ValueError(
                        f"QRP table length {length} is not a power of two")
                table = QueryRouteTable(bits=length.bit_length() - 1)
                received = bytearray()
                count, expected = 0, 1
            else:
                raise TypeError(f"not a QRP message: {message!r}")
        if table is None:
            raise ValueError("QRP stream must open with a RESET")
        if 1 < expected <= count:
            raise ValueError(
                f"QRP stream ended at patch {expected - 1} of {count}")
        if len(received) == table.size and 0 not in received:
            table._all_ones = True
        else:
            table._slots = _nonzero_offsets(received)
        return table


@dataclass(frozen=True)
class QrpReset:
    """QRP RESET variant: clears the table and declares its geometry."""

    table_length: int
    infinity: int

    variant = 0x00

    def encode(self) -> bytes:
        return struct.pack("<BIB", self.variant, self.table_length,
                           self.infinity)


#: QRP patch compressor codes (per the spec)
COMPRESSOR_NONE = 0x00
COMPRESSOR_ZLIB = 0x01


@dataclass(frozen=True)
class QrpPatch:
    """QRP PATCH variant (8-bit entries; optional zlib compression).

    ``data`` always holds the *uncompressed* slot bytes; compression is
    applied at encode time and undone at decode time, so equality and
    table reconstruction are independent of the wire compressor.
    """

    sequence_number: int
    sequence_count: int
    entry_bits: int
    data: bytes
    compressor: int = COMPRESSOR_NONE

    variant = 0x01

    def encode(self) -> bytes:
        if self.compressor == COMPRESSOR_ZLIB:
            import zlib
            body = zlib.compress(self.data, level=6)
        elif self.compressor == COMPRESSOR_NONE:
            body = self.data
        else:
            raise ValueError(
                f"unsupported QRP compressor {self.compressor}")
        return struct.pack("<BBBBB", self.variant, self.sequence_number,
                           self.sequence_count, self.compressor,
                           self.entry_bits) + body


def encode_qrp(message) -> bytes:
    """Encode either QRP variant to payload bytes."""
    return message.encode()


def decode_qrp(payload: bytes):
    """Decode a QRP payload into :class:`QrpReset` or :class:`QrpPatch`."""
    if not payload:
        raise ValueError("empty QRP payload")
    variant = payload[0]
    if variant == QrpReset.variant:
        if len(payload) < 6:
            raise ValueError("short QRP reset")
        table_length, infinity = struct.unpack_from("<IB", payload, 1)
        return QrpReset(table_length, infinity)
    if variant == QrpPatch.variant:
        if len(payload) < 5:
            raise ValueError("short QRP patch")
        sequence_number, sequence_count, compressor, entry_bits = payload[1:5]
        body = payload[5:]
        if compressor == COMPRESSOR_ZLIB:
            import zlib
            try:
                body = zlib.decompress(body)
            except zlib.error as exc:
                raise ValueError("corrupt zlib QRP patch") from exc
        elif compressor != COMPRESSOR_NONE:
            raise ValueError(f"unsupported QRP compressor {compressor}")
        return QrpPatch(sequence_number, sequence_count, entry_bits, body,
                        compressor)
    raise ValueError(f"unknown QRP variant {variant}")
