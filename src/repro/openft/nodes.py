"""OpenFT node behaviour: USER children, SEARCH parents, INDEX statistics.

A USER node synchronizes its share list to its SEARCH parents each time
its session comes up; SEARCH nodes hold the resulting per-child index and
answer keyword searches from it, fanning searches one hop across the
search-node mesh.  Results carry the *sharing child's* self-reported
address and ports, which is what the paper's source analysis sees.

Stale-index realism: when a child's session drops, its parent keeps the
entries (the real giFT daemon only noticed on TCP failure), so searches
can return currently-offline hosts whose downloads then fail -- these are
the non-"downloadable" responses of the paper's denominator.
"""

from __future__ import annotations

import struct
import zlib
from dataclasses import dataclass
from typing import (Callable, Dict, FrozenSet, List, NamedTuple, Optional,
                    Set, Tuple)

from ..files.library import SharedLibrary
from ..files.names import tokenize
from ..malware.infection import HostInfection
from ..simnet.addresses import HostAddress
from ..simnet.kernel import Simulator
from ..simnet.rng import SeededStream
from ..simnet.transport import Envelope, Transport
from .constants import (CLASS_SEARCH, CLASS_USER, DEFAULT_HTTP_PORT,
                        DEFAULT_OPENFT_PORT, FT_ADDSHARE_REQUEST,
                        FT_SEARCH_RESPONSE, MAX_SEARCH_RESULTS,
                        OPENFT_VERSION, SEARCH_TTL)
from .packets import (PACKET_HEADER_LENGTH, SEARCH_ID_OFFSET, AddShare,
                      BrowseRequest, BrowseResponse, ChildRequest,
                      ChildResponse, NodeInfoRequest, NodeInfoResponse,
                      NodeListEntry, NodeListRequest, NodeListResponse,
                      PacketError, RemShare, SearchRequest, SearchResponse,
                      ShareSyncEnd, StatsRequest, StatsResponse,
                      VersionRequest, VersionResponse, decode_packet,
                      encode_packet, parse_packet_header)

__all__ = ["ShareRecord", "NodeStats", "OpenFTNode"]


class ShareRecord(NamedTuple):
    """One indexed share of a child, as its SEARCH parent sees it."""

    child_id: str
    host: str
    port: int
    http_port: int
    availability: int
    size: int
    md5: str
    filename: str


@dataclass
class NodeStats:
    """Per-node packet counters."""

    searches_seen: int = 0
    searches_forwarded: int = 0
    results_sent: int = 0
    shares_indexed: int = 0
    decode_errors: int = 0


class OpenFTNode:
    """One simulated OpenFT host (class bitmask decides behaviour)."""

    def __init__(self, sim: Simulator, transport: Transport,
                 endpoint_id: str, address: HostAddress,
                 klass: int = CLASS_USER,
                 alias: str = "",
                 port: int = DEFAULT_OPENFT_PORT,
                 http_port: int = DEFAULT_HTTP_PORT,
                 library: Optional[SharedLibrary] = None,
                 infection: Optional[HostInfection] = None,
                 stream: Optional[SeededStream] = None,
                 max_children: int = 35) -> None:
        self.sim = sim
        self.transport = transport
        self.endpoint_id = endpoint_id
        self.address = address
        self.klass = klass
        self.alias = alias or endpoint_id
        self.port = port
        self.http_port = http_port
        self.library = library if library is not None else SharedLibrary()
        self.infection = infection
        self.stream = stream if stream is not None else sim.stream(
            f"openft:{endpoint_id}")
        self.max_children = max_children
        self.stats = NodeStats()

        #: SEARCH parents this node is a child of
        self.parent_ids: List[str] = []
        #: SEARCH mesh neighbours (search nodes only)
        self.search_peer_ids: List[str] = []

        # SEARCH-node state
        self._children: Set[str] = set()
        #: key is (child, md5, filename) -- a host may share the same
        #: content under many names (bait copies), each its own entry
        self._records: Dict[Tuple[str, str, str], ShareRecord] = {}
        self._token_index: Dict[str, Set[Tuple[str, str, str]]] = {}
        #: child -> {key in ``_records``: the tokens it is indexed
        #: under}, in insertion order, so a drop or removal touches only
        #: that child's entries and never tokenizes a filename again
        self._child_keys: Dict[
            str, Dict[Tuple[str, str, str], FrozenSet[str]]] = {}
        #: (library version, encoded burst) of the last share sync
        self._burst: Optional[Tuple[int, Tuple[bytes, ...]]] = None
        #: search_id -> (requester endpoint, expiry) for relaying responses
        self._search_routes: Dict[int, Tuple[str, float]] = {}
        self._seen_searches: Set[int] = set()

        #: callback receiving (SearchResponse) packets for own searches
        self.on_search_result: Optional[Callable[[SearchResponse], None]] = None
        self.on_browse_result: Optional[Callable[[BrowseResponse], None]] = None
        #: callback receiving (source endpoint, StatsResponse) pairs
        self.on_stats: Optional[Callable[[str, StatsResponse], None]] = None
        #: callback receiving (source endpoint, NodeListResponse) pairs
        self.on_nodelist: Optional[
            Callable[[str, NodeListResponse], None]] = None
        #: resolver from peer endpoint ids to nodes, wired by the network
        #: facade; used to build node-list responses
        self.peer_resolver: Optional[
            Callable[[str], Optional["OpenFTNode"]]] = None
        self._own_searches: Set[int] = set()
        self._own_browses: Set[int] = set()
        self._search_counter = 0

        transport.attach(endpoint_id, self._on_envelope)

    # -- identity -----------------------------------------------------------
    @property
    def is_search_node(self) -> bool:
        """True when this node carries the SEARCH class."""
        return bool(self.klass & CLASS_SEARCH)

    @property
    def advertised_address(self) -> str:
        """Self-reported address placed in share records."""
        return self.address.advertised

    def is_online(self) -> bool:
        """Current session state."""
        return self.transport.is_online(self.endpoint_id)

    def node_info(self) -> NodeInfoResponse:
        """The NODEINFO response this node would give."""
        return NodeInfoResponse(klass=self.klass, port=self.port,
                                http_port=self.http_port, alias=self.alias)

    # -- plumbing ------------------------------------------------------------
    def _send(self, dst: str, packet) -> None:
        self.transport.send(self.endpoint_id, dst, encode_packet(packet))

    def _on_envelope(self, envelope: Envelope) -> None:
        """Receive path: every packet but a SearchResponse decodes first.

        A SearchResponse skips the payload decode, since most responses
        are relayed as raw bytes (see :meth:`_handle_SearchResponse_raw`).
        AddShare, most of a campaign's deliveries, decodes straight into
        its handler; every other packet goes through
        :func:`decode_packet` and the ``_handle_<Packet>`` method of its
        class.  A packet the decode rejects counts in
        ``decode_errors``; the handlers run outside that ``try``, so an
        error a handler raises is never counted as a decode error.
        """
        raw = envelope.payload
        try:
            command, length = parse_packet_header(raw)
            if command == FT_ADDSHARE_REQUEST:
                packet = AddShare.decode(raw[PACKET_HEADER_LENGTH:])
            elif command == FT_SEARCH_RESPONSE:
                packet = None
            else:
                packet = decode_packet(raw)
        except PacketError:
            self.stats.decode_errors += 1
            return
        if command == FT_ADDSHARE_REQUEST:
            self._handle_AddShare(envelope.src, packet)
        elif command == FT_SEARCH_RESPONSE:
            self._handle_SearchResponse_raw(envelope.src, raw, length)
        else:
            handler = getattr(self, f"_handle_{type(packet).__name__}", None)
            if handler is not None:
                handler(envelope.src, packet)

    # -- handshake-ish packets -----------------------------------------------
    def _handle_VersionRequest(self, src: str, packet: VersionRequest) -> None:
        self._send(src, VersionResponse(*OPENFT_VERSION))

    def _handle_VersionResponse(self, src: str,
                                packet: VersionResponse) -> None:
        pass  # recorded nowhere; version mismatches are out of scope

    def _handle_NodeInfoRequest(self, src: str,
                                packet: NodeInfoRequest) -> None:
        self._send(src, self.node_info())

    def _handle_NodeInfoResponse(self, src: str,
                                 packet: NodeInfoResponse) -> None:
        pass

    def _handle_NodeListRequest(self, src: str,
                                packet: NodeListRequest) -> None:
        entries = [NodeListEntry(host=self.advertised_address,
                                 port=self.port, klass=self.klass)]
        if self.peer_resolver is not None:
            for peer_id in self.search_peer_ids:
                peer = self.peer_resolver(peer_id)
                if peer is not None:
                    entries.append(NodeListEntry(
                        host=peer.advertised_address, port=peer.port,
                        klass=peer.klass))
        self._send(src, NodeListResponse(entries=tuple(entries)))

    def _handle_NodeListResponse(self, src: str,
                                 packet: NodeListResponse) -> None:
        if self.on_nodelist is not None:
            self.on_nodelist(src, packet)

    def request_nodelist(self, node_id: str) -> None:
        """Ask a node for the search/index nodes it knows."""
        self._send(node_id, NodeListRequest())

    def _handle_StatsRequest(self, src: str, packet: StatsRequest) -> None:
        self._send(src, StatsResponse(
            users=len(self._children), shares=len(self._records),
            gigabytes=sum(record.size for record in self._records.values())
            // (1024 ** 3)))

    def _handle_StatsResponse(self, src: str, packet: StatsResponse) -> None:
        if self.on_stats is not None:
            self.on_stats(src, packet)

    def request_stats(self, node_id: str) -> None:
        """Ask a SEARCH/INDEX node for its network statistics."""
        self._send(node_id, StatsRequest())

    # -- child adoption ------------------------------------------------------
    def _handle_ChildRequest(self, src: str, packet: ChildRequest) -> None:
        accepted = (self.is_search_node
                    and len(self._children) < self.max_children)
        if accepted:
            self._children.add(src)
        self._send(src, ChildResponse(accepted=accepted))

    def _handle_ChildResponse(self, src: str, packet: ChildResponse) -> None:
        if packet.accepted and src not in self.parent_ids:
            self.parent_ids.append(src)
            self.sync_shares_to(src)

    def request_parent(self, search_node_id: str) -> None:
        """Ask a SEARCH node to adopt this node as a child."""
        self._send(search_node_id, ChildRequest())

    # -- share sync ------------------------------------------------------------
    def _share_sync_packets(self) -> Tuple[bytes, ...]:
        """The encoded AddShare burst (plus end marker) for one sync.

        Encoded once per library version and replayed: a sync sends the
        bytes encoding the current library would produce.
        """
        version = self.library.version
        if self._burst is None or self._burst[0] != version:
            packets = [encode_packet(AddShare(size=shared.size,
                                              md5=shared.blob.md5_hex(),
                                              filename=shared.name))
                       for shared in self.library]
            packets.append(encode_packet(ShareSyncEnd()))
            self._burst = (version, tuple(packets))
        return self._burst[1]

    def sync_shares_to(self, parent_id: str) -> None:
        """Send the current library as AddShare packets to one parent."""
        send = self.transport.send
        for raw in self._share_sync_packets():
            send(self.endpoint_id, parent_id, raw)

    def sync_shares(self) -> None:
        """Re-sync shares to every parent (called on session up).

        The burst is encoded once and replayed per parent -- same send
        order (all of parent A, then all of parent B) and identical
        bytes as encoding inside the loop, minus the redundant work.
        """
        if not self.parent_ids:
            return
        packets = self._share_sync_packets()
        send = self.transport.send
        for parent_id in self.parent_ids:
            for raw in packets:
                send(self.endpoint_id, parent_id, raw)

    def _handle_AddShare(self, src: str, packet: AddShare) -> None:
        """Index one share of a child.

        A re-sync of an indexed key replaces its record in place: the
        key holds the filename, so its tokens are already indexed.
        """
        if src not in self._children:
            return
        child = self.transport.endpoint(src)
        if child is None:
            return
        record = self._make_record(src, packet)
        key = (src, packet.md5, packet.filename)
        if key not in self._records:
            tokens = tokenize(packet.filename)
            for token in tokens:
                self._token_index.setdefault(token, set()).add(key)
            self._child_keys.setdefault(src, {})[key] = tokens
        self._records[key] = record
        self.stats.shares_indexed += 1

    def _make_record(self, child_id: str, packet: AddShare) -> ShareRecord:
        node = self._child_node(child_id)
        host = node.advertised_address if node else "0.0.0.0"
        port = node.port if node else DEFAULT_OPENFT_PORT
        http_port = node.http_port if node else DEFAULT_HTTP_PORT
        return ShareRecord(child_id, host, port, http_port,
                           self.stream.randint(0, 3), packet.size,
                           packet.md5, packet.filename)

    #: wired by the network facade: child endpoint id -> OpenFTNode
    child_resolver: Optional[Callable[[str], Optional["OpenFTNode"]]] = None

    def _child_node(self, child_id: str) -> Optional["OpenFTNode"]:
        if self.child_resolver is None:
            return None
        return self.child_resolver(child_id)

    def _handle_RemShare(self, src: str, packet: RemShare) -> None:
        keys = self._child_keys.get(src)
        if not keys:
            return
        stale = [key for key in keys if key[1] == packet.md5]
        for key in stale:
            del self._records[key]
            self._unindex(key, keys.pop(key))

    def _unindex(self, key: Tuple[str, str, str],
                 tokens: FrozenSet[str]) -> None:
        for token in tokens:
            bucket = self._token_index.get(token)
            if bucket is not None:
                bucket.discard(key)
                if not bucket:
                    del self._token_index[token]

    def _handle_ShareSyncEnd(self, src: str, packet: ShareSyncEnd) -> None:
        pass

    def drop_child(self, child_id: str) -> None:
        """Remove a child and all its index entries (TCP drop noticed)."""
        self._children.discard(child_id)
        records = self._records
        for key, tokens in self._child_keys.pop(child_id, {}).items():
            del records[key]
            self._unindex(key, tokens)

    # -- searching ---------------------------------------------------------
    def _request_id(self) -> int:
        """Next search/browse id: a stable endpoint tag + local counter.

        ``zlib.crc32`` rather than builtin ``hash()``: the latter is
        salted per process (PYTHONHASHSEED), which would give the same
        node different ids -- and different id-collision patterns --
        on every run.
        """
        self._search_counter += 1
        endpoint_tag = zlib.crc32(self.endpoint_id.encode("utf-8"))
        return (endpoint_tag & 0xFFFF) << 16 | (
            self._search_counter & 0xFFFF)

    def originate_search(self, query: str) -> int:
        """Send a search to every parent; returns the search id.

        Encoded once and fanned out: every parent receives the same
        wire bytes, exactly as the per-parent encode produced.
        """
        search_id = self._request_id()
        self._own_searches.add(search_id)
        request = SearchRequest(search_id=search_id, ttl=SEARCH_TTL,
                                query=query)
        self.transport.send_many(self.endpoint_id, self.parent_ids,
                                 encode_packet(request))
        return search_id

    def _handle_SearchRequest(self, src: str,
                              packet: SearchRequest) -> None:
        """Serve one search and forward it across the search-node mesh,
        encoded once with its ttl one lower."""
        if not self.is_search_node:
            return
        self.stats.searches_seen += 1
        if packet.search_id in self._seen_searches:
            return
        self._seen_searches.add(packet.search_id)
        if len(self._seen_searches) > 8192:
            self._seen_searches.clear()
        self._search_routes[packet.search_id] = (src, self.sim.now + 600.0)

        for response in self._match_local(packet):
            self._send(src, response)
            self.stats.results_sent += 1
        self._send(src, SearchResponse.end_marker(packet.search_id))

        if packet.ttl > 0:
            forwarded = encode_packet(packet._replace(ttl=packet.ttl - 1))
            targets = [peer_id for peer_id in self.search_peer_ids
                       if peer_id != src]
            self.transport.send_many(self.endpoint_id, targets, forwarded)
            self.stats.searches_forwarded += len(targets)

    def _match_local(self, packet: SearchRequest) -> List[SearchResponse]:
        tokens = [token for token in tokenize(packet.query) if token]
        if not tokens:
            return []
        buckets = []
        for token in tokens:
            bucket = self._token_index.get(token)
            if not bucket:
                return []
            buckets.append(bucket)
        buckets.sort(key=len)
        keys = set(buckets[0])
        for bucket in buckets[1:]:
            keys &= bucket
        responses = []
        for key in sorted(keys)[:MAX_SEARCH_RESULTS]:
            record = self._records[key]
            responses.append(SearchResponse(
                packet.search_id, record.host, record.port,
                record.http_port, record.availability, record.size,
                record.md5, record.filename))
        return responses

    def _handle_SearchResponse_raw(self, src: str, raw: bytes,
                                   length: int) -> None:
        """Route one SearchResponse packet back to its requester.

        A relaying node only needs the search id (fixed offset) to pick
        the route; the received bytes forward untouched -- they are the
        bytes a decode/re-encode would produce.  Responses to our *own*
        searches decode fully before the callback sees them.
        """
        if length < 38:
            # below SearchResponse.decode's floor; count it like
            # decode_packet would
            self.stats.decode_errors += 1
            return
        search_id = struct.unpack_from(">I", raw, SEARCH_ID_OFFSET)[0]
        if search_id in self._own_searches:
            try:
                packet = SearchResponse.decode(raw[PACKET_HEADER_LENGTH:])
            except PacketError:
                self.stats.decode_errors += 1
                return
            if self.on_search_result is not None:
                self.on_search_result(packet)
            return
        route = self._search_routes.get(search_id)
        if route is None or route[1] < self.sim.now:
            return
        self.transport.send(self.endpoint_id, route[0], raw)

    # -- browsing ------------------------------------------------------------
    def originate_browse(self, target_id: str) -> int:
        """Ask ``target_id`` for its share list; returns the browse id."""
        browse_id = self._request_id()
        self._own_browses.add(browse_id)
        self._send(target_id, BrowseRequest(browse_id=browse_id))
        return browse_id

    def _handle_BrowseRequest(self, src: str, packet: BrowseRequest) -> None:
        for shared in self.library:
            self._send(src, BrowseResponse(browse_id=packet.browse_id,
                                           size=shared.size,
                                           md5=shared.blob.md5_hex(),
                                           filename=shared.name))
        self._send(src, BrowseResponse.end_marker(packet.browse_id))

    def _handle_BrowseResponse(self, src: str,
                               packet: BrowseResponse) -> None:
        """Deliver one BrowseResponse of our own browse; a listing for
        any other browse is dropped."""
        if (packet.browse_id in self._own_browses
                and self.on_browse_result is not None):
            self.on_browse_result(packet)

    def _handle_PushRequest(self, src: str, packet) -> None:
        pass  # downloads are modelled at the measurement layer
