"""The OpenFT overlay facade.

Mirrors :class:`repro.gnutella.network.GnutellaNetwork`: owns the node
registry, wires the search-node mesh and child adoptions, exposes crawler
creation and the download path (giFT's HTTP transfer, modelled as a
content request by MD5 that requires the serving host to be online).
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
from ..transfer.http import HttpRequest, HttpResponse, openft_request
from ..transfer.server import serve_request
from .constants import CLASS_SEARCH, CLASS_USER
from .nodes import OpenFTNode
from .packets import PushRequest, decode_packet, encode_packet

__all__ = ["OpenFTNetwork"]


class OpenFTNetwork:
    """A wired OpenFT overlay plus content-fetch semantics."""

    def __init__(self, sim: Simulator, transport: Transport,
                 search_nodes: Sequence[OpenFTNode],
                 user_nodes: Sequence[OpenFTNode],
                 strains: Iterable[MalwareStrain] = ()) -> None:
        self.sim = sim
        self.transport = transport
        self.search_nodes = list(search_nodes)
        self.user_nodes = list(user_nodes)
        self.nodes: Dict[str, OpenFTNode] = {
            node.endpoint_id: node
            for node in [*self.search_nodes, *self.user_nodes]
        }
        self._by_host: Dict[str, str] = {
            node.advertised_address: node.endpoint_id
            for node in self.nodes.values()
        }
        self._malware_blobs = self._index_malware_blobs(strains)
        for node in self.nodes.values():
            node.child_resolver = self.nodes.get
            node.peer_resolver = self.nodes.get

    @staticmethod
    def _index_malware_blobs(strains: Iterable[MalwareStrain],
                             ) -> Dict[str, tuple]:
        index: Dict[str, tuple] = {}
        for strain in strains:
            for variant_index in range(len(strain.sizes)):
                body = strain_body_blob(strain, variant_index)
                index[body.md5_hex()] = (strain.strain_id, body)
                if strain.behaviour is Behaviour.TROJAN_DROPPER:
                    archive = dropper_archive_blob(strain, variant_index)
                    index[archive.md5_hex()] = (strain.strain_id, archive)
        return index

    # -- wiring --------------------------------------------------------------
    def wire(self, stream: SeededStream, parents_per_user: int = 2) -> None:
        """Connect the search mesh and adopt every user under parents.

        The search mesh is a clique for small meshes (OpenFT search nodes
        kept connections to all known peers).  Adoption runs through the
        real ChildRequest/Response packets; the chosen assignment is kept
        in :attr:`desired_parents` so churn hooks can retry adoption for
        users whose first attempt raced an offline session.
        """
        self.desired_parents: Dict[str, List[str]] = {}
        for node in self.search_nodes:
            node.search_peer_ids = [
                other.endpoint_id for other in self.search_nodes
                if other.endpoint_id != node.endpoint_id
            ]
        for user in self.user_nodes:
            parents = stream.sample(
                self.search_nodes,
                min(parents_per_user, len(self.search_nodes)))
            self.desired_parents[user.endpoint_id] = [
                parent.endpoint_id for parent in parents]
            for parent in parents:
                user.request_parent(parent.endpoint_id)

    # -- lookup ----------------------------------------------------------------
    def node_by_host(self, host: str) -> Optional[OpenFTNode]:
        """Ground-truth resolution of a response's self-reported host."""
        endpoint_id = self._by_host.get(host)
        return self.nodes.get(endpoint_id) if endpoint_id else None

    def online_count(self) -> int:
        """Nodes whose session is currently up."""
        return sum(1 for node in self.nodes.values() if node.is_online())

    # -- crawler -----------------------------------------------------------
    def create_crawler(self, endpoint_id: str, address: HostAddress,
                       attach_to: int = 2,
                       alias: str = "gift-instrumented") -> OpenFTNode:
        """Create the instrumented giFT client and adopt it under parents."""
        crawler = OpenFTNode(sim=self.sim, transport=self.transport,
                             endpoint_id=endpoint_id, address=address,
                             klass=CLASS_USER, alias=alias)
        self.nodes[endpoint_id] = crawler
        self._by_host[address.advertised] = endpoint_id
        stream = self.sim.stream("openft:crawler")
        for parent in stream.sample(self.search_nodes,
                                    min(attach_to, len(self.search_nodes))):
            crawler.request_parent(parent.endpoint_id)
        return crawler

    def bootstrap_crawler(self, endpoint_id: str, address: HostAddress,
                          attach_to: int = 2,
                          alias: str = "gift-instrumented") -> OpenFTNode:
        """Create the crawler via node-list discovery.

        The crawler contacts one seed node, asks for its node list, and
        requests adoption from the advertised SEARCH nodes as the
        responses come in -- the giFT startup flow.
        """
        crawler = OpenFTNode(sim=self.sim, transport=self.transport,
                             endpoint_id=endpoint_id, address=address,
                             klass=CLASS_USER, alias=alias)
        crawler.peer_resolver = self.nodes.get
        self.nodes[endpoint_id] = crawler
        self._by_host[address.advertised] = endpoint_id

        def adopt_from_list(src: str, response) -> None:
            adopted = 0
            for entry in response.entries:
                if adopted >= attach_to:
                    break
                if not entry.klass & CLASS_SEARCH:
                    continue
                node = self.node_by_host(entry.host)
                if node is None:
                    continue
                crawler.request_parent(node.endpoint_id)
                adopted += 1

        crawler.on_nodelist = adopt_from_list
        stream = self.sim.stream("openft:crawler-bootstrap")

        def request_from_seed() -> None:
            seed = stream.choice(self.search_nodes)
            crawler.request_nodelist(seed.endpoint_id)

        def retry_until_adopted(attempts_left: int) -> None:
            if crawler.parent_ids or attempts_left <= 0:
                return
            request_from_seed()
            self.sim.after(30.0,
                           lambda: retry_until_adopted(attempts_left - 1),
                           label="bootstrap-retry")

        # the first request can be lost (lossy overlay, offline seed);
        # keep retrying against random seeds until an adoption lands
        retry_until_adopted(attempts_left=20)
        return crawler

    # -- downloads ---------------------------------------------------------
    #: probability a host's upload slots are saturated at request time
    BUSY_PROBABILITY = 0.05

    def _resolve_content(self, node: OpenFTNode, md5: str) -> Optional[Blob]:
        shared = node.library.by_md5(md5)
        if shared is not None:
            return shared.blob
        entry = self._malware_blobs.get(md5)
        if entry is not None:
            strain_id, blob = entry
            infection = node.infection
            if infection is not None and infection.carries(strain_id):
                return blob
        return None

    def relay_push(self, requester_id: str, responder: OpenFTNode,
                   md5: str) -> bool:
        """Relay a PushRequest to a NATed responder via a shared parent.

        giFT forwarded push requests through the firewalled child's
        SEARCH parent.  The relay succeeds when some parent that still
        lists the responder as a child is online; the packet is encoded
        and re-parsed to exercise the codec.
        """
        requester = self.nodes.get(requester_id)
        if requester is None or not requester.is_online():
            return False
        push = PushRequest(host=requester.advertised_address,
                           port=requester.port, md5=md5)
        wire = encode_packet(push)
        if getattr(self.transport, "shard_active", False):
            # shard mode: adoption state (parent_ids, _children) lives
            # on the endpoints' owner shards; the replicas here are
            # stale.  Decide relayability from the build-time parent
            # wish-list plus replicated session state, draw-free.
            for parent_id in self.desired_parents.get(
                    responder.endpoint_id, []):
                parent = self.nodes.get(parent_id)
                if parent is None or not parent.is_online():
                    continue
                decode_packet(wire)  # the parent parses and relays it
                return True
            return False
        for parent_id in responder.parent_ids:
            parent = self.nodes.get(parent_id)
            if parent is None or not parent.is_online():
                continue
            if responder.endpoint_id not in parent._children:
                continue
            decode_packet(wire)  # the parent parses and relays it
            return True
        return False

    def fetch(self, host: str, md5: str,
              requester_id: Optional[str] = None) -> Optional[Blob]:
        """Attempt the giFT HTTP transfer of ``md5`` from ``host``.

        The request/response heads run through :mod:`repro.transfer`.
        Fails when the host is unknown (stale index pointing at a gone
        node) or offline, occasionally 503-busy; a NATed responder
        additionally needs a push relay through an online parent (or
        fails outright when no ``requester_id`` is given).  Succeeds when
        the host shares that content or is infected with the strain it
        belongs to.
        """
        node = self.node_by_host(host)
        if node is None or not node.is_online():
            return None
        if node.address.behind_nat:
            if requester_id is None:
                return None
            if not self.relay_push(requester_id, node, md5):
                return None
        request = HttpRequest.decode(openft_request(md5).encode())
        if getattr(self.transport, "shard_active", False):
            # shard mode: see GnutellaNetwork.fetch -- busyness draws
            # move to a per-endpoint stream whose order is the fetch
            # order, invariant under the partition
            busy_stream = self.sim.stream(f"shard:fetch:{node.endpoint_id}")
        else:
            busy_stream = node.stream
        response_head, blob = serve_request(
            request,
            resolve=lambda key: self._resolve_content(node, key),
            is_busy=busy_stream.bernoulli(self.BUSY_PROBABILITY),
            server="giFT/0.11.8 (OpenFT)")
        response = HttpResponse.decode(response_head.encode())
        if not response.ok or blob is None:
            return None
        return blob
