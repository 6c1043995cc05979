"""A bytearray QRP route table: the oracle for the sparse one.

One byte per slot, every token hashed with ``qrp_hash`` on every call, and
the wire form cut straight from the bitmap -- the plainest reading of the
protocol.  The tests build it and :class:`repro.gnutella.qrp.QueryRouteTable`
from the same inputs and require the same decisions, counts and wire
bytes.  Its ``from_messages`` does no validation; the tests feed it only
streams that ``to_messages`` wrote.
"""

from repro.files.names import tokenize
from repro.gnutella.qrp import (COMPRESSOR_NONE, COMPRESSOR_ZLIB,
                                DEFAULT_TABLE_BITS, QrpPatch, QrpReset,
                                qrp_hash)


def routable_tokens(text):
    return [token for token in tokenize(text) if len(token) >= 3]


class DenseQueryRouteTable:
    def __init__(self, bits=DEFAULT_TABLE_BITS):
        self.bits = bits
        self.size = 1 << bits
        self._slots = bytearray(self.size)
        self._all_ones = False

    @property
    def set_count(self):
        if self._all_ones:
            return self.size
        return self.size - self._slots.count(0)

    def add_keyword(self, token):
        self._slots[qrp_hash(token, self.bits)] = 1

    def add_name(self, name):
        for token in routable_tokens(name):
            self.add_keyword(token)

    def build_from(self, names):
        self._slots = bytearray(self.size)
        self._all_ones = False
        for name in names:
            self.add_name(name)

    def mark_all(self):
        self._slots = bytearray(b"\x01" * self.size)
        self._all_ones = True

    def might_match(self, query):
        if self._all_ones:
            return True
        tokens = routable_tokens(query)
        if not tokens:
            return True
        return all(self._slots[qrp_hash(token, self.bits)] for token in tokens)

    def to_messages(self, fragment_slots=2048, compress=False):
        compressor = COMPRESSOR_ZLIB if compress else COMPRESSOR_NONE
        fragments = [self._slots[start:start + fragment_slots]
                     for start in range(0, self.size, fragment_slots)]
        patches = [QrpPatch(sequence_number=index + 1,
                            sequence_count=len(fragments), entry_bits=8,
                            data=bytes(fragment), compressor=compressor)
                   for index, fragment in enumerate(fragments)]
        return [QrpReset(table_length=self.size, infinity=7), *patches]

    @staticmethod
    def from_messages(messages):
        table = DenseQueryRouteTable()
        cursor = 0
        for message in messages:
            if isinstance(message, QrpReset):
                table = DenseQueryRouteTable(
                    bits=message.table_length.bit_length() - 1)
                cursor = 0
            else:
                end = cursor + len(message.data)
                table._slots[cursor:end] = message.data
                cursor = end
        table._all_ones = all(table._slots)
        return table
