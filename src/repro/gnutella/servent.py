"""Gnutella servent behaviour: leaves, ultrapeers and message handling.

A :class:`GnutellaServent` is one host's protocol engine.  All runtime
traffic travels as encoded descriptor frames through the simnet transport,
so every hop exercises the binary codec -- queries flood ultrapeer-to-
ultrapeer with TTL/hops accounting and GUID duplicate suppression, reach
leaves through per-leaf QRP tables, and query hits travel the recorded
reverse path back to the originator, exactly as in the 0.6 protocol.

Infection hooks: an infected servent answers queries from its (poisoned)
library like any other host; if it carries a query-echo strain it
additionally synthesizes a response named after the query, and its QRP
table is all-ones so that *every* query reaches it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import AbstractSet, Callable, Dict, List, Optional, Set, Tuple

from ..files.library import SharedFile, SharedLibrary
from ..malware.infection import HostInfection
from ..simnet.addresses import HostAddress
from ..simnet.kernel import Simulator
from ..simnet.rng import SeededStream
from ..simnet.transport import Envelope, Transport
from .constants import (DEFAULT_PORT, DEFAULT_TTL, DESCRIPTOR_BYE,
                        DESCRIPTOR_PING, DESCRIPTOR_PONG, DESCRIPTOR_PUSH,
                        DESCRIPTOR_QUERY, DESCRIPTOR_QUERY_HIT,
                        HEADER_LENGTH, MAX_RESULTS_PER_HIT,
                        QHD_VENDOR_LIMEWIRE)
from .ggep import daily_uptime_block, encode_ggep, vendor_block
from .guid import GUID_LENGTH, guid_hex, new_guid
from .messages import (Bye, FrameCache, Header, HitResult, MessageError,
                       Ping, Pong, Query, QueryHit, frame, parse_header,
                       patch_ttl_hops)
from .qrp import QueryRouteTable, query_slots

__all__ = ["ServentStats", "GnutellaServent"]

#: Forget query routes after this many seconds of virtual time; bounds the
#: reverse-path table the way real servents timed out route entries.
ROUTE_TTL_S = 600.0


@dataclass
class ServentStats:
    """Per-servent message counters (diagnostics and tests)."""

    queries_seen: int = 0
    queries_forwarded_peers: int = 0
    queries_forwarded_leaves: int = 0
    hits_generated: int = 0
    hits_forwarded: int = 0
    hits_received_local: int = 0
    dropped_duplicates: int = 0
    dropped_ttl: int = 0
    decode_errors: int = 0


class GnutellaServent:
    """One simulated Gnutella 0.6 host."""

    #: dynamic-query defaults (LimeWire 4.x controller parameters)
    DQ_RESULT_TARGET = 150
    DQ_BATCH = 2
    DQ_INTERVAL_S = 2.4
    DQ_PROBE_TTL = 2

    def __init__(self, sim: Simulator, transport: Transport,
                 endpoint_id: str, address: HostAddress,
                 role: str = "leaf",
                 user_agent: str = "LimeWire/4.12.3",
                 port: int = DEFAULT_PORT,
                 library: Optional[SharedLibrary] = None,
                 infection: Optional[HostInfection] = None,
                 stream: Optional[SeededStream] = None,
                 busy_probability: float = 0.15,
                 dynamic_queries: bool = False) -> None:
        if role not in ("leaf", "ultrapeer"):
            raise ValueError(f"unknown role {role!r}")
        self.sim = sim
        self.transport = transport
        self.endpoint_id = endpoint_id
        self.address = address
        self.role = role
        self.user_agent = user_agent
        self.port = port
        self.library = library if library is not None else SharedLibrary()
        self.infection = infection
        self.stream = stream if stream is not None else sim.stream(
            f"servent:{endpoint_id}")
        self.busy_probability = busy_probability
        #: when True this ultrapeer paces leaf queries with the dynamic
        #: query controller instead of flooding them immediately
        self.dynamic_queries = dynamic_queries
        self.servent_guid = new_guid(self.stream)
        self.stats = ServentStats()
        #: live dynamic-query controllers: guid -> state dict
        self._dynamic_states: Dict[bytes, Dict[str, object]] = {}
        #: encode-once memo for descriptors this servent fans out
        self.frame_cache = FrameCache()

        #: ultrapeer neighbours (ids) -- for leaves these are its shields
        self.peer_ids: List[str] = []
        #: for ultrapeers: attached leaves and their QRP tables
        self.leaf_tables: Dict[str, QueryRouteTable] = {}
        #: for leaves: the table this leaf's last QRP sync decoded, which
        #: ``sync_leaf_qrt`` installs again while the leaf's table equals it
        self.synced_route_table: Optional[QueryRouteTable] = None
        #: reverse routes: descriptor GUID -> (upstream endpoint, expiry)
        self._routes: Dict[bytes, Tuple[str, float]] = {}
        #: push routes: responder servent GUID (hex) -> (the neighbour a
        #: hit from that servent arrived through, expiry).  PUSH
        #: descriptors for a NATed responder retrace these hops.
        self.push_routes: Dict[str, Tuple[str, float]] = {}
        #: GUIDs of queries this servent originated
        self._origin_guids: Set[bytes] = set()
        #: local-delivery callback for hits to own queries
        self.on_local_hit: Optional[Callable[[QueryHit, Header], None]] = None
        #: optional host cache fed by incoming Pongs (crawlers use this)
        self.host_cache = None  # type: Optional[object]

        transport.attach(endpoint_id, self._on_envelope)

    # -- identity ----------------------------------------------------------
    @property
    def advertised_address(self) -> str:
        """The address this servent self-reports in QueryHits."""
        return self.address.advertised

    @property
    def behind_nat(self) -> bool:
        """True when the servent cannot accept inbound connections."""
        return self.address.behind_nat

    def is_online(self) -> bool:
        """Current session state (driven by churn)."""
        return self.transport.is_online(self.endpoint_id)

    # -- QRP ---------------------------------------------------------------
    def build_route_table(self) -> QueryRouteTable:
        """The QRT this servent advertises to its ultrapeers.

        Echo-infected hosts advertise an all-ones table; honest hosts hash
        the tokens of their shared names, read from the library's index.
        """
        table = QueryRouteTable()
        if self.infection is not None and self.infection.echo_strains:
            table.mark_all()
        else:
            table.add_tokens(self.library.all_tokens())
        return table

    def install_leaf_table(self, leaf_id: str,
                           table: QueryRouteTable) -> None:
        """(Ultrapeer) record a leaf's QRT after a patch exchange."""
        if self.role != "ultrapeer":
            raise RuntimeError("only ultrapeers hold leaf tables")
        self.leaf_tables[leaf_id] = table

    # -- sending -----------------------------------------------------------
    def _send_frame(self, dst: str, guid: bytes, message, ttl: int,
                    hops: int) -> None:
        self.transport.send(self.endpoint_id, dst,
                            frame(guid, message, ttl=ttl, hops=hops))

    def originate_query(self, criteria: str,
                        min_speed_kbps: int = 0,
                        ttl: int = DEFAULT_TTL) -> bytes:
        """Issue a keyword query to all attached ultrapeers.

        Returns the descriptor GUID so the caller can correlate hits.
        The descriptor body is encoded once and fanned out; every
        neighbour receives byte-identical wire bytes, as before.
        """
        guid = new_guid(self.stream)
        self._origin_guids.add(guid)
        query = Query(min_speed_kbps=min_speed_kbps, criteria=criteria)
        encoded = self.frame_cache.frame(guid, query, ttl=ttl, hops=0)
        self.transport.send_many(self.endpoint_id, self.peer_ids, encoded)
        return guid

    def send_ping(self) -> bytes:
        """Issue a Ping to neighbours (host discovery/keepalive)."""
        guid = new_guid(self.stream)
        self._origin_guids.add(guid)
        encoded = self.frame_cache.frame(guid, Ping(), ttl=1, hops=0)
        self.transport.send_many(self.endpoint_id, self.peer_ids, encoded)
        return guid

    def send_bye(self, code: int = 200,
                 reason: str = "Session closed") -> None:
        """Announce a graceful disconnect to every neighbour.

        Must be sent while the session is still up; neighbours clean up
        their per-connection state (an ultrapeer drops this leaf's QRP
        table) on receipt.
        """
        bye = Bye(code=code, reason=reason)
        guid = new_guid(self.stream)
        encoded = self.frame_cache.frame(guid, bye, ttl=1, hops=0)
        self.transport.send_many(self.endpoint_id, self.peer_ids, encoded)

    # -- receiving -----------------------------------------------------------
    def _on_envelope(self, envelope: Envelope) -> None:
        """Receive path: header-only parse, body decoded on demand.

        Forwarding-heavy descriptor types never pay for a full decode:
        QueryHits relay as raw bytes with only the ttl/hops re-stamped,
        Pongs decode only when a host cache wants them, Pings and Pushes
        are validated by length alone.  A frame counts in
        ``decode_errors`` exactly when :func:`decode_payload` would
        reject it, for every frame our encoders can produce; the
        per-type length guards mirror the corresponding ``decode``
        preconditions.
        """
        raw = envelope.payload
        try:
            header = parse_header(raw)
        except MessageError:
            self.stats.decode_errors += 1
            return
        dtype = header.descriptor_type
        if dtype == DESCRIPTOR_QUERY:
            try:
                query = Query.decode(raw[HEADER_LENGTH:])
            except MessageError:
                self.stats.decode_errors += 1
                return
            self._handle_query(envelope.src, header, query, raw)
        elif dtype == DESCRIPTOR_QUERY_HIT:
            self._handle_query_hit_raw(envelope.src, header, raw)
        elif dtype == DESCRIPTOR_PING:
            self._handle_ping(envelope.src, header)
        elif dtype == DESCRIPTOR_PONG:
            # Pong.decode fails on exactly one condition: payload < 14
            # bytes.  Check it even when nobody consumes the pong so the
            # error counter matches decode_payload.
            if header.payload_length < 14:
                self.stats.decode_errors += 1
            elif self.host_cache is not None:
                self.host_cache.add_pong(Pong.decode(raw[HEADER_LENGTH:]),
                                         self.sim.now)
        elif dtype == DESCRIPTOR_BYE:
            try:
                Bye.decode(raw[HEADER_LENGTH:])
            except MessageError:
                self.stats.decode_errors += 1
                return
            self._handle_bye(envelope.src)
        elif dtype == DESCRIPTOR_PUSH:
            # Push.decode fails iff the payload is short; the message
            # itself is unused (downloads live at the measurement layer)
            if header.payload_length < GUID_LENGTH + 10:
                self.stats.decode_errors += 1
        else:
            # decode_payload rejects unknown descriptor types
            self.stats.decode_errors += 1

    def _handle_bye(self, src: str) -> None:
        """A neighbour disconnected gracefully; drop its session state."""
        self.leaf_tables.pop(src, None)

    # -- ping --------------------------------------------------------------
    def _handle_ping(self, src: str, header: Header) -> None:
        pong = Pong(port=self.port, address=self.advertised_address,
                    file_count=len(self.library),
                    kbytes_shared=self.library.total_bytes() // 1024)
        self._send_frame(src, header.guid, pong, ttl=max(header.hops, 1),
                         hops=0)

    # -- query path ----------------------------------------------------------
    def _handle_query(self, src: str, header: Header, query: Query,
                      raw: bytes) -> None:
        """Route one incoming query.  ``raw`` is the received frame;
        forwarding re-stamps its ttl/hops instead of re-encoding the
        body."""
        self.stats.queries_seen += 1
        if header.guid in self._routes or header.guid in self._origin_guids:
            self.stats.dropped_duplicates += 1
            return
        self._remember_route(header.guid, src)

        self._answer_locally(src, header, query)

        if self.role != "ultrapeer":
            return
        if self.dynamic_queries and src in self.leaf_tables:
            # pace the mesh probing; leaves are still served immediately
            self._forward_to_leaves(src, header, query, raw)
            self._start_dynamic_query(src, header, query)
        else:
            self._forward_query(src, header, query, raw)

    def _remember_route(self, guid: bytes, src: str) -> None:
        now = self.sim.now
        if len(self._routes) > 4096:
            self._routes = {g: (peer, expiry)
                            for g, (peer, expiry) in self._routes.items()
                            if expiry > now}
        self._routes[guid] = (src, now + ROUTE_TTL_S)

    def _forward_query(self, src: str, header: Header, query: Query,
                       raw: bytes) -> None:
        if header.ttl > 1:
            forwarded = patch_ttl_hops(raw, header.ttl - 1, header.hops + 1)
            targets = [peer_id for peer_id in self.peer_ids
                       if peer_id != src]
            self.transport.send_many(self.endpoint_id, targets, forwarded)
            self.stats.queries_forwarded_peers += len(targets)
        else:
            self.stats.dropped_ttl += 1
        self._forward_to_leaves(src, header, query, raw)

    def _forward_to_leaves(self, src: str, header: Header, query: Query,
                           raw: bytes) -> None:
        # leaves are last-hop deliveries regardless of remaining TTL
        leaf_frame = patch_ttl_hops(raw, 1, header.hops + 1)
        # the query's slots, hashed once per table size (in practice one)
        wanted: Dict[int, Optional[AbstractSet[int]]] = {}
        for leaf_id, table in self.leaf_tables.items():
            if leaf_id == src:
                continue
            bits = table.bits
            if bits not in wanted:
                wanted[bits] = query_slots(query.criteria, bits)
            if table.admits(wanted[bits]):
                self.transport.send(self.endpoint_id, leaf_id, leaf_frame)
                self.stats.queries_forwarded_leaves += 1

    # -- dynamic querying ----------------------------------------------------
    def _start_dynamic_query(self, src: str, header: Header,
                             query: Query) -> None:
        """Begin a paced probe of the mesh for a leaf's query.

        LimeWire's dynamic query controller sent the query to a couple of
        neighbours at a time with a short TTL, watched how many results
        flowed back through it, and stopped once the user had enough --
        so popular content stopped early and rare content probed wide.
        """
        remaining = [peer_id for peer_id in self.peer_ids if peer_id != src]
        self.stream.shuffle(remaining)
        state: Dict[str, object] = {
            "results": 0,
            "remaining": remaining,
            "query": query,
            "header": header,
            "rounds": 0,
        }
        self._dynamic_states[header.guid] = state
        self._dynamic_round(header.guid)

    def _dynamic_round(self, guid: bytes) -> None:
        state = self._dynamic_states.get(guid)
        if state is None:
            return
        remaining: List[str] = state["remaining"]  # type: ignore[assignment]
        if (state["results"] >= self.DQ_RESULT_TARGET or not remaining
                or not self.is_online()):
            del self._dynamic_states[guid]
            return
        header: Header = state["header"]  # type: ignore[assignment]
        query: Query = state["query"]  # type: ignore[assignment]
        # the same query object probes round after round, so the cache
        # encodes the body once and re-stamps ttl/hops
        probe = self.frame_cache.frame(guid, query, ttl=self.DQ_PROBE_TTL,
                                       hops=header.hops + 1)
        for _ in range(min(self.DQ_BATCH, len(remaining))):
            peer_id = remaining.pop()
            self.transport.send(self.endpoint_id, peer_id, probe)
            self.stats.queries_forwarded_peers += 1
        state["rounds"] = int(state["rounds"]) + 1
        # args-carrying event: no closure
        self.sim.queue.push(self.sim.now + self.DQ_INTERVAL_S,
                            self._dynamic_round, "dynamic-query", (guid,))

    def _answer_locally(self, src: str, header: Header,
                        query: Query) -> None:
        matches: List[SharedFile] = self.library.match(
            query.criteria, limit=MAX_RESULTS_PER_HIT)
        if self.infection is not None and self.infection.echo_strains:
            echoed = self.infection.echo_responses(query.criteria, self.stream)
            matches = [shared for _, shared in echoed] + matches
        if not matches:
            return
        results = tuple(
            HitResult(file_index=shared.file_id & 0xFFFFFFFF,
                      file_size=shared.size,
                      filename=shared.name,
                      sha1_urn=shared.sha1_urn)
            for shared in matches[:MAX_RESULTS_PER_HIT]
        )
        vendor = (QHD_VENDOR_LIMEWIRE if "LimeWire" in self.user_agent
                  else self.user_agent[:4].upper().encode("ascii",
                                                          "replace"))
        private_data = encode_ggep([
            vendor_block(vendor, 0x44),
            daily_uptime_block(int(self.stream.uniform(600, 86_400))),
        ])
        hit = QueryHit(
            port=self.port,
            address=self.advertised_address,
            speed_kbps=self.stream.choice((56, 350, 1000, 1544)),
            results=results,
            servent_guid=self.servent_guid,
            vendor=vendor,
            push_needed=self.behind_nat,
            busy=self.stream.bernoulli(self.busy_probability),
            private_data=private_data,
        )
        self.stats.hits_generated += 1
        self._send_frame(src, header.guid, hit, ttl=max(header.hops + 1, 1),
                         hops=0)

    # -- hit path ------------------------------------------------------------
    def _remember_push_route(self, servent_guid: bytes, src: str) -> None:
        if len(self.push_routes) > 4096:
            now = self.sim.now
            self.push_routes = {
                guid: (peer, expiry)
                for guid, (peer, expiry) in self.push_routes.items()
                if expiry > now}
        self.push_routes[guid_hex(servent_guid)] = (
            src, self.sim.now + ROUTE_TTL_S)

    def push_next_hop(self, servent_guid: bytes) -> Optional[str]:
        """Where a PUSH for ``servent_guid`` should be forwarded, if known."""
        route = self.push_routes.get(guid_hex(servent_guid))
        if route is None or route[1] < self.sim.now:
            return None
        return route[0]

    def _handle_query_hit_raw(self, src: str, header: Header,
                              raw: bytes) -> None:
        """Route one QueryHit frame back along its query's path.

        A relaying servent never needs the result list -- only the
        responder GUID (the frame's last 16 bytes), the result count
        (the payload's first byte) and the routing fields already in the
        header -- so intermediate hops forward the received bytes with
        just ttl/hops re-stamped.  Hits to our *own* queries decode
        fully before any side effect (a malformed hit must leave no
        state behind).
        """
        if header.guid in self._origin_guids:
            try:
                hit = QueryHit.decode(raw[HEADER_LENGTH:])
            except MessageError:
                self.stats.decode_errors += 1
                return
            self._remember_push_route(hit.servent_guid, src)
            state = self._dynamic_states.get(header.guid)
            if state is not None:
                state["results"] = int(state["results"]) + len(hit.results)
            self.stats.hits_received_local += 1
            if self.on_local_hit is not None:
                self.on_local_hit(hit, header)
            return
        if header.payload_length < 11 + GUID_LENGTH:
            # below QueryHit.decode's floor; count it like decode_payload
            self.stats.decode_errors += 1
            return
        self._remember_push_route(raw[-GUID_LENGTH:], src)
        state = self._dynamic_states.get(header.guid)
        if state is not None:
            # payload byte 0 is the result count
            state["results"] = int(state["results"]) + raw[HEADER_LENGTH]
        route = self._routes.get(header.guid)
        if route is None or route[1] < self.sim.now:
            return  # route expired or unknown; drop like real servents
        if header.ttl <= 1:
            self.stats.dropped_ttl += 1
            return
        self.transport.send(self.endpoint_id, route[0],
                            patch_ttl_hops(raw, header.ttl - 1,
                                           header.hops + 1))
        self.stats.hits_forwarded += 1
