"""The Gnutella overlay facade.

Bundles the simulator, transport, servents and topology into one object the
measurement layer talks to: create a crawler leaf, issue queries, and fetch
file content from a responder (the HTTP/PUSH download path, modelled as a
direct content request that succeeds only if the responder is online and
actually serves that content identity).
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Sequence

from ..files.payload import Blob
from ..malware.infection import dropper_archive_blob, strain_body_blob
from ..malware.strain import Behaviour, MalwareStrain
from ..simnet.addresses import HostAddress
from ..simnet.kernel import Simulator
from ..simnet.rng import SeededStream
from ..simnet.transport import Transport
from ..transfer.http import (gnutella_urn_request, received_request,
                             received_response)
from ..transfer.server import serve_request
from .guid import guid_hex, new_guid
from .messages import Push, decode_payload, frame, parse_frame
from .servent import GnutellaServent
from .topology import TopologyConfig, attach_leaf, build_topology

__all__ = ["GnutellaNetwork"]


class GnutellaNetwork:
    """A wired Gnutella overlay plus content-fetch semantics."""

    def __init__(self, sim: Simulator, transport: Transport,
                 ultrapeers: Sequence[GnutellaServent],
                 leaves: Sequence[GnutellaServent],
                 strains: Iterable[MalwareStrain] = ()) -> None:
        self.sim = sim
        self.transport = transport
        self.ultrapeers = list(ultrapeers)
        self.leaves = list(leaves)
        self.servents: Dict[str, GnutellaServent] = {
            servent.endpoint_id: servent
            for servent in [*self.ultrapeers, *self.leaves]
        }
        self._by_guid: Dict[str, str] = {
            guid_hex(servent.servent_guid): servent.endpoint_id
            for servent in self.servents.values()
        }
        self._malware_blobs = self._index_malware_blobs(strains)

    @staticmethod
    def _index_malware_blobs(strains: Iterable[MalwareStrain],
                             ) -> Dict[str, tuple]:
        index: Dict[str, tuple] = {}
        for strain in strains:
            for variant_index in range(len(strain.sizes)):
                body = strain_body_blob(strain, variant_index)
                index[body.sha1_urn()] = (strain.strain_id, body)
                if strain.behaviour is Behaviour.TROJAN_DROPPER:
                    archive = dropper_archive_blob(strain, variant_index)
                    index[archive.sha1_urn()] = (strain.strain_id, archive)
        return index

    # -- wiring --------------------------------------------------------------
    @staticmethod
    def wire(ultrapeers: Sequence[GnutellaServent],
             leaves: Sequence[GnutellaServent], stream: SeededStream,
             config: Optional[TopologyConfig] = None) -> Dict[str, List[str]]:
        """Build the overlay topology (delegates to :mod:`topology`)."""
        return build_topology(ultrapeers, leaves, stream,
                              config or TopologyConfig())

    # -- lookup ----------------------------------------------------------------
    def servent_by_guid(self, servent_guid: bytes) -> Optional[GnutellaServent]:
        """Ground-truth resolution of a QueryHit's servent GUID."""
        endpoint_id = self._by_guid.get(guid_hex(servent_guid))
        return self.servents.get(endpoint_id) if endpoint_id else None

    def online_count(self) -> int:
        """Servents whose session is currently up."""
        return sum(1 for servent in self.servents.values()
                   if servent.is_online())

    # -- crawler -----------------------------------------------------------
    def create_crawler(self, endpoint_id: str, address: HostAddress,
                       attach_to: int = 3,
                       user_agent: str = "LimeWire/4.12.3 (instrumented)",
                       ) -> GnutellaServent:
        """Create the instrumented measurement leaf and attach it."""
        crawler = GnutellaServent(
            sim=self.sim, transport=self.transport,
            endpoint_id=endpoint_id, address=address, role="leaf",
            user_agent=user_agent,
        )
        stream = self.sim.stream("crawler:attach")
        shields = stream.sample(self.ultrapeers,
                                min(attach_to, len(self.ultrapeers)))
        for ultrapeer in shields:
            attach_leaf(crawler, ultrapeer)
        self.servents[endpoint_id] = crawler
        self._by_guid[guid_hex(crawler.servent_guid)] = endpoint_id
        return crawler

    def servent_by_address(self, address: str,
                           port: int) -> Optional[GnutellaServent]:
        """Resolve an advertised (address, port) to a servent."""
        for servent in self.servents.values():
            if (servent.advertised_address == address
                    and servent.port == port):
                return servent
        return None

    def x_try_header_for(self, ultrapeer: GnutellaServent) -> str:
        """The X-Try-Ultrapeers value ``ultrapeer`` would hand out."""
        from .hostcache import CachedHost, format_x_try_ultrapeers
        neighbours = []
        for peer_id in ultrapeer.peer_ids:
            peer = self.servents.get(peer_id)
            if peer is not None and peer.role == "ultrapeer":
                neighbours.append(CachedHost(
                    address=peer.advertised_address, port=peer.port,
                    last_seen=self.sim.now, ultrapeer=True))
        return format_x_try_ultrapeers(neighbours)

    def bootstrap_crawler(self, endpoint_id: str, address: HostAddress,
                          seeds: int = 2, attach_to: int = 3,
                          user_agent: str =
                          "LimeWire/4.12.3 (instrumented)",
                          ) -> GnutellaServent:
        """Create the crawler via the real discovery flow.

        Instead of being handed ultrapeers, the crawler contacts a couple
        of seed hosts, learns more ultrapeers from their
        ``X-Try-Ultrapeers`` handshake headers (parsed through the real
        header codec), fills its host cache, and attaches to the freshest
        candidates.  Incoming Pongs keep feeding the cache afterwards.
        """
        from .handshake import HandshakeMessage, accept_response
        from .hostcache import HostCache, parse_x_try_ultrapeers

        crawler = GnutellaServent(
            sim=self.sim, transport=self.transport,
            endpoint_id=endpoint_id, address=address, role="leaf",
            user_agent=user_agent,
        )
        cache = HostCache()
        crawler.host_cache = cache
        stream = self.sim.stream("crawler:bootstrap")
        seed_ultrapeers = stream.sample(self.ultrapeers,
                                        min(seeds, len(self.ultrapeers)))
        for seed in seed_ultrapeers:
            response = accept_response(seed.user_agent, ultrapeer=True)
            augmented = HandshakeMessage(
                response.start_line,
                {**response.headers,
                 "X-Try-Ultrapeers": self.x_try_header_for(seed)})
            decoded = HandshakeMessage.decode(augmented.encode())
            for host in parse_x_try_ultrapeers(
                    decoded.header("X-Try-Ultrapeers"), self.sim.now):
                cache.add(host)

        attached = 0
        for candidate in cache.candidates(len(cache)):
            if attached >= attach_to:
                break
            ultrapeer = self.servent_by_address(candidate.address,
                                                candidate.port)
            if ultrapeer is None or ultrapeer.role != "ultrapeer":
                cache.forget(candidate.address, candidate.port)
                continue
            attach_leaf(crawler, ultrapeer)
            attached += 1
        # fall back to seeds if the advertised neighbours were too few
        for seed in seed_ultrapeers:
            if attached >= attach_to:
                break
            if seed.endpoint_id not in crawler.peer_ids:
                attach_leaf(crawler, seed)
                attached += 1

        self.servents[endpoint_id] = crawler
        self._by_guid[guid_hex(crawler.servent_guid)] = endpoint_id
        crawler.send_ping()  # keep discovering through Pongs
        return crawler

    # -- downloads ---------------------------------------------------------
    #: probability a host's upload slots are saturated at request time
    BUSY_PROBABILITY = 0.05
    #: PUSH descriptors give up after this many overlay hops
    MAX_PUSH_HOPS = 8

    def route_push(self, requester_id: str, responder_guid: bytes,
                   file_index: int = 0) -> bool:
        """Route a PUSH descriptor to a NATed responder hop by hop.

        Retraces the push routes recorded while the QueryHit travelled to
        the requester, and fails if any hop is offline or has forgotten
        the route -- the cases where a NATed responder is unreachable in
        practice -- or when the responder is more than ``MAX_PUSH_HOPS``
        hops away.  Every hop forwards the same bytes (guid, ttl and
        hops stay fixed), so the Push descriptor is framed, parsed and
        decoded once, on the first hop; a walk of zero hops runs no
        codec.  Returns True when the responder received the PUSH (and
        would connect back for the HTTP exchange).
        """
        requester = self.servents.get(requester_id)
        if requester is None or not requester.is_online():
            return False
        target = self.servent_by_guid(responder_guid)
        if target is None:
            return False
        push = Push(servent_guid=responder_guid, file_index=file_index,
                    address=requester.advertised_address,
                    port=requester.port)
        guid = new_guid(requester.stream)
        current, hops = requester, 0
        while current.servent_guid != responder_guid:
            if hops == self.MAX_PUSH_HOPS:
                return False
            next_hop_id = current.push_next_hop(responder_guid)
            if next_hop_id is None:
                return False
            next_hop = self.servents.get(next_hop_id)
            if next_hop is None or not next_hop.is_online():
                return False
            if hops == 0:
                header, payload = parse_frame(
                    frame(guid, push, ttl=self.MAX_PUSH_HOPS, hops=0))
                decode_payload(header, payload)
            current, hops = next_hop, hops + 1
        return True

    def _resolve_content(self, servent: GnutellaServent,
                         sha1_urn: str) -> Optional[Blob]:
        shared = servent.library.by_urn(sha1_urn)
        if shared is not None:
            return shared.blob
        entry = self._malware_blobs.get(sha1_urn)
        if entry is not None:
            strain_id, blob = entry
            infection = servent.infection
            if infection is not None and infection.carries(strain_id):
                return blob
        return None

    def fetch(self, responder_guid: bytes, sha1_urn: str,
              requester_id: Optional[str] = None) -> Optional[Blob]:
        """Attempt to retrieve content from a responder by identity.

        Runs the real HTTP exchange: the request/response heads are
        encoded and parsed through :mod:`repro.transfer`, once per
        distinct head (``received_request``/``received_response``).  A
        NATed responder cannot accept inbound connections, so when
        ``requester_id`` is given the fetch first routes a PUSH
        descriptor to it (see :meth:`route_push`) and fails if the route
        is dead; without a requester the NATed fetch fails outright.
        Returns 503-busy occasionally and 404 when the host does not
        serve that urn; echo worms serve their own body for any name
        they advertised.
        """
        servent = self.servent_by_guid(responder_guid)
        if servent is None or not servent.is_online():
            return None  # connection refused
        if servent.behind_nat:
            if requester_id is None:
                return None  # no inbound path to a NATed host
            if not self.route_push(requester_id, responder_guid):
                return None  # PUSH route dead
        request = received_request(gnutella_urn_request, sha1_urn)
        response_head, blob = serve_request(
            request,
            resolve=lambda urn: self._resolve_content(servent, urn),
            is_busy=servent.stream.bernoulli(self.BUSY_PROBABILITY),
            server=servent.user_agent)
        response = received_response(response_head.encode())
        if not response.ok or blob is None:
            return None
        assert response.content_length() == blob.size
        return blob
