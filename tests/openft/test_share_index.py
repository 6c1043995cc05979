"""Oracle tests: a SEARCH node's share index against a brute-force model,
and the cached share-sync burst against a fresh per-file encode.

The node keeps a per-child key index (drops and removals touch only that
child's keys) and replaces a re-synced key's record in place; the model
below keeps one flat dict and rebuilds everything derived from it.
"""

import struct

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.files.catalog import CatalogConfig, ContentCatalog
from repro.files.library import SharedFile, SharedLibrary
from repro.files.names import tokenize
from repro.malware.corpus import openft_strains
from repro.malware.infection import HostInfection
from repro.openft.constants import (CLASS_SEARCH, CLASS_USER,
                                    FT_ADDSHARE_REQUEST, MAX_SEARCH_RESULTS)
from repro.openft.nodes import OpenFTNode, ShareRecord
from repro.openft.packets import (AddShare, ChildRequest, PacketError,
                                  RemShare, SearchRequest, SearchResponse,
                                  ShareSyncEnd, StatsRequest, StatsResponse,
                                  decode_packet, encode_packet)
from repro.simnet.addresses import AddressAllocator
from repro.simnet.kernel import Simulator
from repro.simnet.transport import Envelope, Transport

SEED = 7
CHILDREN = ("c0", "c1", "c2", "c3")
MAX_CHILDREN = 3
WORDS = ("alpha", "beta", "gamma", "delta", "mp3", "zip")
#: few names and hashes, so re-syncs of one key and several names for
#: one md5 are common; "__.__" has no tokens at all
NAMES = ("alpha beta.mp3", "beta gamma.zip", "alpha.zip", "gamma delta.mp3",
         "Alpha_Beta.MP3", "delta", "__.__")
MD5S = tuple(f"{index:032x}" for index in range(3))

_child = st.sampled_from(CHILDREN)
_query = st.lists(st.sampled_from(WORDS), min_size=1, max_size=3).map(
    " ".join)
_add = st.tuples(st.just("add"), _child, st.sampled_from(MD5S),
                 st.sampled_from(NAMES),
                 st.integers(min_value=0, max_value=0xFFFFFFFF))
#: shares arrive far more often than they leave, so the index fills
#: before drops and removals empty it
_step = st.one_of(
    _add, _add, _add,
    st.tuples(st.just("rem"), _child, st.sampled_from(MD5S)),
    st.tuples(st.just("drop"), _child),
    st.tuples(st.just("adopt"), _child))


class _Model:
    """The index as a flat dict, everything else derived by brute force."""

    def __init__(self, parent: OpenFTNode, children) -> None:
        self.children_by_id = children
        self.children = set()
        self.records = {}
        # an identical stream: the node must draw once per indexed
        # AddShare, in delivery order
        self.stream = Simulator(seed=SEED).stream(
            f"openft:{parent.endpoint_id}")

    def add(self, src, md5, filename, size) -> None:
        if src not in self.children:
            return
        child = self.children_by_id[src]
        self.records[(src, md5, filename)] = ShareRecord(
            child_id=src, host=child.advertised_address, port=child.port,
            http_port=child.http_port,
            availability=self.stream.randint(0, 3),
            size=size, md5=md5, filename=filename)

    def rem(self, src, md5) -> None:
        for key in [key for key in self.records
                    if key[0] == src and key[1] == md5]:
            del self.records[key]

    def drop(self, src) -> None:
        self.children.discard(src)
        for key in [key for key in self.records if key[0] == src]:
            del self.records[key]

    def adopt(self, src) -> None:
        if len(self.children) < MAX_CHILDREN:
            self.children.add(src)

    def token_index(self):
        index = {}
        for key, record in self.records.items():
            for token in tokenize(record.filename):
                index.setdefault(token, set()).add(key)
        return index

    def matches(self, query: str):
        tokens = tokenize(query)
        keys = sorted(key for key, record in self.records.items()
                      if tokens <= tokenize(record.filename))
        return [SearchResponse(
            search_id=1, host=record.host, port=record.port,
            http_port=record.http_port, availability=record.availability,
            size=record.size, md5=record.md5, filename=record.filename)
            for record in (self.records[key]
                           for key in keys[:MAX_SEARCH_RESULTS])]

    def stats(self) -> StatsResponse:
        return StatsResponse(
            users=len(self.children), shares=len(self.records),
            gigabytes=sum(record.size for record in self.records.values())
            // (1024 ** 3))


def _world():
    sim = Simulator(seed=SEED)
    transport = Transport(sim)
    allocator = AddressAllocator(sim.stream("addr"))
    parent = OpenFTNode(sim, transport, "parent", allocator.allocate(),
                        klass=CLASS_SEARCH | CLASS_USER,
                        max_children=MAX_CHILDREN)
    children = {
        child_id: OpenFTNode(sim, transport, child_id,
                             allocator.allocate(behind_nat=index == 1),
                             klass=CLASS_USER, port=1215 + index,
                             http_port=1216 + index)
        for index, child_id in enumerate(CHILDREN)}
    nodes = dict(children, parent=parent)
    parent.child_resolver = nodes.get
    return sim, parent, children


def _deliver(parent: OpenFTNode, src: str, packet) -> None:
    parent._on_envelope(Envelope(src=src, dst=parent.endpoint_id,
                                 payload=encode_packet(packet),
                                 sent_at=0.0))


def _assert_index(parent: OpenFTNode, model: _Model) -> None:
    assert parent._records == model.records
    assert parent._token_index == model.token_index()


def _stats(parent: OpenFTNode) -> StatsResponse:
    sent = []
    parent._send = lambda dst, packet: sent.append(packet)
    try:
        parent._handle_StatsRequest("c0", StatsRequest())
    finally:
        del parent._send
    (response,) = sent
    return response


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(_step, st.lists(_query, min_size=1, max_size=2)),
                min_size=10, max_size=60))
def test_index_matches_brute_force_model(steps):
    _, parent, children = _world()
    model = _Model(parent, children)
    # all but one child start adopted; the steps drop and re-adopt them
    adopted = [(("adopt", child_id), []) for child_id in CHILDREN[:-1]]
    for (kind, src, *args), queries in adopted + steps:
        if kind == "add":
            md5, filename, size = args
            _deliver(parent, src, AddShare(size=size, md5=md5,
                                           filename=filename))
            model.add(src, md5, filename, size)
        elif kind == "rem":
            _deliver(parent, src, RemShare(md5=args[0]))
            model.rem(src, args[0])
        elif kind == "drop":
            parent.drop_child(src)
            model.drop(src)
        else:
            _deliver(parent, src, ChildRequest())
            model.adopt(src)

        assert parent._children == model.children
        _assert_index(parent, model)
        for query in queries + list(WORDS):
            request = SearchRequest(search_id=1, ttl=0, query=query)
            assert parent._match_local(request) == model.matches(query)
        assert _stats(parent) == model.stats()
    assert parent.stats.decode_errors == 0


def test_resync_replaces_record_and_keeps_the_draw():
    """A re-sent key gets a fresh record (new size, new availability
    draw) and its tokens stay indexed exactly once."""
    _, parent, children = _world()
    model = _Model(parent, children)
    _deliver(parent, "c0", ChildRequest())
    model.adopt("c0")
    for size in (10, 20, 30):
        _deliver(parent, "c0", AddShare(size=size, md5=MD5S[0],
                                        filename=NAMES[0]))
        model.add("c0", MD5S[0], NAMES[0], size)
    _assert_index(parent, model)
    assert parent.stats.shares_indexed == 3


def test_remshare_and_drop_clear_every_name_of_a_child():
    """One md5 under every name plus one other share: a RemShare takes
    all names of its md5 and nothing else, a drop takes the rest."""
    _, parent, children = _world()
    model = _Model(parent, children)
    for child_id in ("c0", "c1"):
        _deliver(parent, child_id, ChildRequest())
        model.adopt(child_id)
    for child_id in ("c0", "c1"):
        for md5, names in ((MD5S[0], NAMES), (MD5S[1], NAMES[:1])):
            for filename in names:
                _deliver(parent, child_id, AddShare(size=1, md5=md5,
                                                    filename=filename))
                model.add(child_id, md5, filename, 1)
    _deliver(parent, "c0", RemShare(md5=MD5S[0]))
    model.rem("c0", MD5S[0])
    _assert_index(parent, model)
    parent.drop_child("c0")
    model.drop("c0")
    _assert_index(parent, model)
    assert {key[0] for key in parent._records} == {"c1"}


def test_malformed_addshare_counts_a_decode_error():
    """Well framed, but the payload is short or its filename has no
    terminator: counted as :func:`decode_packet` would, nothing indexed."""
    _, parent, _ = _world()
    _deliver(parent, "c0", ChildRequest())
    unterminated = encode_packet(
        AddShare(size=1, md5=MD5S[0], filename="a.mp3"))[4:-1]
    for payload in (b"\x00" * 10, unterminated):
        raw = struct.pack(">HH", len(payload), FT_ADDSHARE_REQUEST) + payload
        with pytest.raises(PacketError):
            decode_packet(raw)
        parent._on_envelope(Envelope(src="c0", dst="parent", payload=raw,
                                     sent_at=0.0))
    assert parent.stats.decode_errors == 2
    assert parent._records == {}


# -- the share-sync burst ---------------------------------------------------
def _fresh_burst(library: SharedLibrary):
    return ([encode_packet(AddShare(size=shared.size,
                                    md5=shared.blob.md5_hex(),
                                    filename=shared.name))
             for shared in library]
            + [encode_packet(ShareSyncEnd())])


_FILE_POOL = 6
_library_step = st.one_of(
    st.tuples(st.just("add"), st.integers(0, _FILE_POOL - 1)),
    st.tuples(st.just("remove"), st.integers(0, _FILE_POOL - 1)),
    st.tuples(st.just("infect"), st.integers(0, 2)),
    st.tuples(st.just("sync"), st.just(0)))


@settings(max_examples=80, deadline=None)
@given(st.lists(_library_step, min_size=5, max_size=25))
def test_burst_cache_matches_fresh_encode(steps):
    sim = Simulator(seed=SEED)
    stream = sim.stream("library")
    catalog = ContentCatalog(CatalogConfig(works=30), sim.stream("catalog"))
    pool = []
    for _ in range(_FILE_POOL):
        version = catalog.sample_version(stream)
        pool.append(SharedFile.make(catalog.decorate_filename(version),
                                    version.size, version.extension,
                                    version.blob))
    strains = openft_strains()
    library = SharedLibrary()
    infection = HostInfection()
    node = OpenFTNode(sim, Transport(sim), "user",
                      AddressAllocator(sim.stream("addr")).allocate(),
                      klass=CLASS_USER, library=library)
    assert list(node._share_sync_packets()) == _fresh_burst(library)
    for kind, index in steps:
        before = library.version
        shared_before = [shared.file_id for shared in library]
        if kind == "add":
            library.add(pool[index])
        elif kind == "remove":
            library.remove(pool[index].file_id)
        elif kind == "infect":
            infection.infect(strains[index], library, stream,
                             resident_copies=2)
        changed = [shared.file_id for shared in library] != shared_before
        assert (library.version != before) == changed
        burst = node._share_sync_packets()
        assert list(burst) == _fresh_burst(library)
        assert node._share_sync_packets() is burst  # replayed, not re-encoded


def test_idempotent_add_keeps_the_version():
    sim = Simulator(seed=SEED)
    catalog = ContentCatalog(CatalogConfig(works=10), sim.stream("catalog"))
    version = catalog.sample_version(sim.stream("library"))
    shared = SharedFile.make("a b.mp3", version.size, version.extension,
                             version.blob)
    library = SharedLibrary()
    library.add(shared)
    assert library.version == 1
    library.add(shared)
    library.remove(shared.file_id + 1)  # not shared: no change
    assert library.version == 1
    library.remove(shared.file_id)
    assert library.version == 2
