"""Tests for the Query Routing Protocol."""

import hashlib
import string
import struct
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.files.library import SharedFile, SharedLibrary
from repro.files.names import WORD_POOLS
from repro.files.payload import Blob
from repro.gnutella.constants import HEADER_LENGTH
from repro.gnutella.messages import Query, frame
from repro.gnutella.qrp import (DEFAULT_TABLE_BITS, QrpPatch, QrpReset,
                                QueryRouteTable, decode_qrp, encode_qrp,
                                qrp_hash)
from repro.gnutella.servent import GnutellaServent
from repro.malware.corpus import limewire_strains
from repro.malware.infection import HostInfection
from repro.malware.strain import Behaviour
from repro.simnet.addresses import AddressAllocator
from repro.simnet.kernel import Simulator
from repro.simnet.transport import Envelope

from .dense_qrt import DenseQueryRouteTable


class TestHash:
    def test_deterministic(self):
        assert qrp_hash("madonna") == qrp_hash("madonna")

    def test_case_insensitive(self):
        assert qrp_hash("MaDoNNa") == qrp_hash("madonna")

    def test_in_range(self):
        for bits in (8, 13, 16):
            for token in ("a", "photoshop", "x" * 30):
                assert 0 <= qrp_hash(token, bits) < (1 << bits)

    def test_spreads(self):
        slots = {qrp_hash(f"token{i}") for i in range(500)}
        assert len(slots) > 450  # few collisions at 2^16

    def test_invalid_bits(self):
        with pytest.raises(ValueError):
            qrp_hash("x", 0)
        with pytest.raises(ValueError):
            qrp_hash("x", 33)

    @given(st.text(min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_total_function(self, token):
        assert 0 <= qrp_hash(token) < (1 << DEFAULT_TABLE_BITS)


class TestQueryRouteTable:
    def test_match_requires_all_tokens(self):
        table = QueryRouteTable()
        table.add_name("madonna_angel.mp3")
        assert table.might_match("madonna")
        assert table.might_match("madonna angel")
        assert not table.might_match("madonna zebra")

    def test_short_tokens_ignored(self):
        table = QueryRouteTable()
        table.add_name("ab_cd_song.mp3")
        # 2-letter tokens are not routable; query of only short tokens
        # forwards conservatively
        assert table.might_match("ab cd")

    def test_empty_table_blocks(self):
        table = QueryRouteTable()
        assert not table.might_match("anything")

    def test_mark_all_matches_everything(self):
        table = QueryRouteTable()
        table.mark_all()
        for query in ("madonna", "zebra quantum xylophone", ""):
            assert table.might_match(query)
        assert table.set_count == table.size

    def test_build_from_replaces(self):
        table = QueryRouteTable()
        table.add_name("old_stuff.exe")
        table.build_from(["new_things.zip"])
        assert not table.might_match("old stuff")
        assert table.might_match("new things")

    def test_set_count(self):
        table = QueryRouteTable()
        assert table.set_count == 0
        table.add_keyword("photoshop")
        assert table.set_count == 1


class TestWireForm:
    def test_reset_roundtrip(self):
        reset = QrpReset(table_length=65536, infinity=7)
        assert decode_qrp(encode_qrp(reset)) == reset

    def test_patch_roundtrip(self):
        patch = QrpPatch(sequence_number=1, sequence_count=2,
                         entry_bits=8, data=b"\x00\x01" * 10)
        assert decode_qrp(encode_qrp(patch)) == patch

    def test_table_roundtrip_through_messages(self):
        table = QueryRouteTable()
        table.build_from(["photoshop_crack.zip", "madonna_angel.mp3"])
        wire = [encode_qrp(message) for message in table.to_messages()]
        rebuilt = QueryRouteTable.from_messages(
            decode_qrp(raw) for raw in wire)
        assert rebuilt == table
        assert rebuilt.might_match("photoshop crack")
        assert not rebuilt.might_match("zebra")

    def test_all_ones_survives_roundtrip(self):
        table = QueryRouteTable()
        table.mark_all()
        rebuilt = QueryRouteTable.from_messages(
            decode_qrp(encode_qrp(message))
            for message in table.to_messages())
        assert rebuilt.might_match("anything at all")

    def test_fragmentation(self):
        table = QueryRouteTable()
        messages = table.to_messages(fragment_slots=1024)
        patches = [m for m in messages if isinstance(m, QrpPatch)]
        assert len(patches) == table.size // 1024
        assert patches[0].sequence_count == len(patches)

    def test_decode_errors(self):
        with pytest.raises(ValueError):
            decode_qrp(b"")
        with pytest.raises(ValueError):
            decode_qrp(b"\x99")
        with pytest.raises(ValueError):
            decode_qrp(b"\x00\x01")  # short reset

    def test_overrun_patch_rejected(self):
        reset = QrpReset(table_length=16, infinity=7)
        patch = QrpPatch(1, 1, 8, b"\x00" * 32)
        with pytest.raises(ValueError):
            QueryRouteTable.from_messages([reset, patch])


class TestCompressedPatches:
    def test_zlib_patch_roundtrip(self):
        from repro.gnutella.qrp import COMPRESSOR_ZLIB
        patch = QrpPatch(sequence_number=1, sequence_count=1,
                         entry_bits=8, data=b"\x00\x01" * 512,
                         compressor=COMPRESSOR_ZLIB)
        wire = encode_qrp(patch)
        assert len(wire) < len(patch.data)  # actually compressed
        assert decode_qrp(wire) == patch

    def test_compressed_table_roundtrip(self):
        table = QueryRouteTable()
        table.build_from(["photoshop_crack.zip", "madonna_angel.mp3"])
        wire = [encode_qrp(message)
                for message in table.to_messages(compress=True)]
        rebuilt = QueryRouteTable.from_messages(
            decode_qrp(raw) for raw in wire)
        assert rebuilt.might_match("photoshop crack")
        assert not rebuilt.might_match("zebra")

    def test_compression_shrinks_sparse_tables(self):
        table = QueryRouteTable()
        table.add_keyword("lonely")
        plain = sum(len(encode_qrp(m)) for m in table.to_messages())
        packed = sum(len(encode_qrp(m))
                     for m in table.to_messages(compress=True))
        assert packed < plain / 20  # sparse tables compress enormously

    def test_corrupt_zlib_rejected(self):
        from repro.gnutella.qrp import COMPRESSOR_ZLIB
        raw = bytes([QrpPatch.variant, 1, 1, COMPRESSOR_ZLIB, 8]) + b"junk"
        with pytest.raises(ValueError):
            decode_qrp(raw)

    def test_unknown_compressor_rejected(self):
        raw = bytes([QrpPatch.variant, 1, 1, 0x42, 8]) + b"data"
        with pytest.raises(ValueError):
            decode_qrp(raw)
        with pytest.raises(ValueError):
            QrpPatch(1, 1, 8, b"x", compressor=0x42).encode()


def _wire(messages):
    return [encode_qrp(message) for message in messages]


def _round_trip(table):
    return QueryRouteTable.from_messages(
        decode_qrp(raw) for raw in _wire(table.to_messages()))


class TestStreamValidation:
    """``from_messages`` refuses the streams a servent would refuse."""

    def _stream(self, *names):
        table = QueryRouteTable()
        table.build_from(names)
        return table.to_messages()

    def test_table_length_must_be_a_power_of_two(self):
        for length in (0, 3, 65537):
            with pytest.raises(ValueError, match="power of two"):
                QueryRouteTable.from_messages([QrpReset(length, 7)])

    def test_stream_must_open_with_a_reset(self):
        messages = self._stream("madonna_angel.mp3")
        with pytest.raises(ValueError, match="RESET"):
            QueryRouteTable.from_messages(messages[1:])
        with pytest.raises(ValueError, match="RESET"):
            QueryRouteTable.from_messages([])

    def test_patches_out_of_order_are_rejected(self):
        reset, *patches = self._stream("madonna_angel.mp3")
        with pytest.raises(ValueError, match="sequence"):
            QueryRouteTable.from_messages([reset, *reversed(patches)])

    def test_repeated_or_surplus_patches_are_rejected(self):
        reset, *patches = self._stream("madonna_angel.mp3")
        with pytest.raises(ValueError, match="sequence"):
            QueryRouteTable.from_messages([reset, patches[0], patches[0]])
        small = [QrpReset(64, 7), QrpPatch(1, 1, 8, b"\x00" * 32),
                 QrpPatch(2, 1, 8, b"\x00" * 32)]
        with pytest.raises(ValueError, match="sequence"):
            QueryRouteTable.from_messages(small)

    def test_a_stream_that_stops_before_its_last_patch_is_rejected(self):
        # a servent applies a table only after patch N of N: this prefix
        # would install an empty table for a leaf that shares tokens
        reset, *patches = self._stream("madonna_angel.mp3")
        assert len(patches) == 32
        with pytest.raises(ValueError, match="patch 1 of 32"):
            QueryRouteTable.from_messages([reset, patches[0]])
        with pytest.raises(ValueError, match="patch 31 of 32"):
            QueryRouteTable.from_messages([reset, *patches[:-1]])
        # the sequence the stream ends in must be complete, whatever
        # sequences came before it
        with pytest.raises(ValueError, match="patch 2 of 32"):
            QueryRouteTable.from_messages(
                [reset, *patches, reset, *patches[:2]])

    def test_sequence_count_may_not_change(self):
        messages = [QrpReset(64, 7), QrpPatch(1, 2, 8, b"\x00" * 32),
                    QrpPatch(2, 3, 8, b"\x00" * 32)]
        with pytest.raises(ValueError, match="count changed"):
            QueryRouteTable.from_messages(messages)

    def test_only_8_bit_entries_are_accepted(self):
        messages = [QrpReset(64, 7), QrpPatch(1, 1, 4, b"\x11" * 32)]
        with pytest.raises(ValueError, match="entry_bits"):
            QueryRouteTable.from_messages(messages)

    def test_a_new_reset_restarts_the_sequence(self):
        first = self._stream("photoshop_crack.zip")
        second = self._stream("madonna_angel.mp3")
        table = QueryRouteTable.from_messages([*first, *second])
        assert table.might_match("madonna angel")
        assert not table.might_match("photoshop")

    def test_memory_follows_the_patch_bytes(self):
        # a 6-byte RESET declaring 2^28 slots
        reset = decode_qrp(struct.pack("<BIB", QrpReset.variant, 1 << 28, 7))
        tracemalloc.start()
        try:
            table = QueryRouteTable.from_messages([reset])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.size == 1 << 28 and table.set_count == 0
        assert peak < 1 << 20

    def test_set_count_counts_slots_not_entry_values(self):
        messages = [QrpReset(16, 7), QrpPatch(1, 1, 8, b"\x11" * 8)]
        table = QueryRouteTable.from_messages(messages)
        assert table.set_count == 8
        assert _round_trip(table) == table

    def test_any_nonzero_entry_is_set(self):
        data = bytes([0, 1, 2, 0x80, 0xFF, 0, 0, 7])
        table = QueryRouteTable.from_messages(
            [QrpReset(8, 7), QrpPatch(1, 1, 8, data)])
        assert table.set_count == 5
        rebuilt = table.to_messages()[1].data
        assert rebuilt == bytes(1 if entry else 0 for entry in data)


#: sha256 of one fixed table's encoding (and of an all-ones table's),
#: recorded from the bytearray implementation the sparse one replaced
_PINNED_NAMES = ("Madonna_Angel.mp3", "photoshop crack keygen.exe",
                 "matrix-dvdrip.xvid.avi", "top hits 2006 vol1.zip",
                 "ab_cd_song.mp3")
_PINNED_SHA256 = (
    "c78d838d14b0806f93e284ad7a198ab4d6858c3f71f7a13877dc8cc6586d4f4e")
_PINNED_ALL_ONES_SHA256 = (
    "d6a9c1fdecb31c22400d1204fb1f3b0c40f9b0e6ead1d8d5b1dfca967f159f6d")

_WORDS = sorted({word for pool in WORD_POOLS.values() for word in pool})
_ALNUM = string.ascii_letters + string.digits
_tokens = st.one_of(
    st.sampled_from(_WORDS),
    st.text(alphabet=_ALNUM, min_size=1, max_size=10),
    st.text(alphabet=_ALNUM, min_size=1, max_size=2),
)
_separators = st.sampled_from([" ", "_", "-", ".", "  ", "__", "(", "+"])


@st.composite
def _names(draw):
    words = draw(st.lists(st.tuples(_tokens, _separators,
                                    st.sampled_from(["lower", "upper",
                                                     "title"])),
                          max_size=6))
    stem = "".join(getattr(word, case)() + separator
                   for word, separator, case in words)
    return stem + draw(st.sampled_from(["", ".mp3", ".EXE", ".zip"]))


#: a table's contents: the names it hashes, or None for an all-ones
#: (echo-worm) table
_table_specs = st.one_of(st.lists(_names(), max_size=12), st.none())
_queries = st.one_of(
    _names(), st.just(""),
    st.text(alphabet=_ALNUM + " ", max_size=8),  # often only 1-2 letters
    st.text(max_size=20))


def _pair(spec):
    sparse, dense = QueryRouteTable(), DenseQueryRouteTable()
    if spec is None:
        sparse.mark_all()
        dense.mark_all()
    else:
        sparse.build_from(spec)
        dense.build_from(spec)
    return sparse, dense


class _Sends:
    """Stands in for the transport: records each frame's destination."""

    def __init__(self):
        self.targets = []

    def attach(self, endpoint_id, on_message):
        pass

    def send(self, src, dst, payload):
        self.targets.append(dst)
        return True

    def send_many(self, src, dsts, payload):
        self.targets.extend(dsts)
        return len(dsts)


def _servent(role, library=None):
    sim = Simulator(seed=1)
    sends = _Sends()
    servent = GnutellaServent(
        sim, sends, role, AddressAllocator(sim.stream("addr")).allocate(),
        role=role, library=library)
    return servent, sends


class TestAgainstDenseOracle:
    """The sparse table decides, counts and encodes like a bytearray."""

    def test_wire_bytes_are_pinned(self):
        table = QueryRouteTable()
        table.build_from(_PINNED_NAMES)
        wire = b"".join(_wire(table.to_messages()))
        assert hashlib.sha256(wire).hexdigest() == _PINNED_SHA256
        table.mark_all()
        wire = b"".join(_wire(table.to_messages()))
        assert hashlib.sha256(wire).hexdigest() == _PINNED_ALL_ONES_SHA256

    @given(spec=_table_specs, queries=st.lists(_queries, max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_decisions_counts_and_wire_match(self, spec, queries):
        sparse, dense = _pair(spec)
        assert sparse.set_count == dense.set_count
        for query in queries:
            assert sparse.might_match(query) == dense.might_match(query)
        for fragment_slots in (2048, 1024):
            for compress in (False, True):
                assert (_wire(sparse.to_messages(fragment_slots, compress))
                        == _wire(dense.to_messages(fragment_slots,
                                                   compress)))
        rebuilt = _round_trip(sparse)
        oracle = DenseQueryRouteTable.from_messages(
            decode_qrp(raw) for raw in _wire(dense.to_messages()))
        assert rebuilt == sparse
        assert (rebuilt.bits, rebuilt._all_ones, rebuilt.set_count) == (
            oracle.bits, oracle._all_ones, oracle.set_count)
        assert _wire(rebuilt.to_messages()) == _wire(oracle.to_messages())

    @given(specs=st.lists(_table_specs, min_size=1, max_size=5),
           queries=st.lists(_queries, min_size=1, max_size=6))
    @settings(max_examples=40, deadline=None)
    def test_fan_out_matches(self, specs, queries):
        ultrapeer, sends = _servent("ultrapeer")
        oracles = {}
        for index, spec in enumerate(specs):
            sparse, oracles[f"leaf{index}"] = _pair(spec)
            ultrapeer.install_leaf_table(f"leaf{index}", _round_trip(sparse))
        for number, text in enumerate(queries):
            guid = number.to_bytes(16, "big")
            raw = frame(guid, Query(min_speed_kbps=0, criteria=text), ttl=1)
            criteria = Query.decode(raw[HEADER_LENGTH:]).criteria
            sends.targets.clear()
            # the query arrives from leaf0, which must not get it back
            ultrapeer._on_envelope(Envelope("leaf0", "ultrapeer", raw, 0.0))
            assert sorted(sends.targets) == sorted(
                leaf_id for leaf_id, dense in oracles.items()
                if leaf_id != "leaf0" and dense.might_match(criteria))


def _shared(name):
    blob = Blob(content_key=name, extension="bin", size=10)
    return SharedFile.make(name, 10, "bin", blob)


class TestTableFromTokenIndex:
    """A leaf's table read from its library's token index equals the one
    hashed from its file names."""

    @staticmethod
    def _from_names(library):
        table = QueryRouteTable()
        table.build_from(shared.name for shared in library)
        return table

    @given(names=st.lists(_names(), max_size=12), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_after_adds_and_removes(self, names, data):
        library = SharedLibrary()
        leaf, _ = _servent("leaf", library)
        files = [_shared(name) for name in names]
        for shared in files:
            library.add(shared)
        assert leaf.build_route_table() == self._from_names(library)
        for shared in data.draw(st.lists(st.sampled_from(files), unique=True)
                                if files else st.just([])):
            library.remove(shared.file_id)
            assert leaf.build_route_table() == self._from_names(library)

    def test_emptied_tokens_leave_the_table(self, sim):
        library = SharedLibrary()
        leaf, _ = _servent("leaf", library)
        kept, dropped = _shared("madonna_angel.mp3"), _shared(
            "photoshop_crack_madonna.zip")
        library.add(kept)
        library.add(dropped)
        library.remove(dropped.file_id)
        assert "photoshop" not in set(library.all_tokens())
        table = leaf.build_route_table()
        assert table == self._from_names(library)
        assert table.might_match("madonna") and not table.might_match(
            "photoshop")

    def test_after_an_infection(self, sim):
        library = SharedLibrary()
        library.add(_shared("madonna_angel.mp3"))
        leaf, _ = _servent("leaf", library)
        leaf.infection = HostInfection()
        strains = limewire_strains()
        resident = next(strain for strain in strains
                        if strain.behaviour is not Behaviour.QUERY_ECHO)
        leaf.infection.infect(resident, library, sim.stream("infect"))
        assert len(library) > 1
        assert leaf.build_route_table() == self._from_names(library)
        echo = next(strain for strain in strains
                    if strain.behaviour is Behaviour.QUERY_ECHO)
        leaf.infection.infect(echo, library, sim.stream("infect"))
        table = leaf.build_route_table()
        assert table.set_count == table.size
        assert table.might_match("anything at all")
