"""Topology construction: the ultrapeer mesh and leaf attachments.

2006 Gnutella was a two-tier overlay: a connected mesh of ultrapeers, each
shielding tens of leaves.  The builder wires a ring-plus-random-chords
ultrapeer graph (connected by construction, low diameter like the real
mesh), attaches each leaf to a few ultrapeers, and runs the actual 0.6
handshake *through the codecs* for every link, plus a QRP table exchange
that sends each distinct table a leaf advertises through the QRP codec
(see :func:`sync_leaf_qrt`) -- synchronously at build time, so setup does
not flood the event queue.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

from ..simnet.rng import SeededStream
from .handshake import (HandshakeMessage, accept_response, connect_request,
                        final_ack, negotiate_roles)
from .qrp import QueryRouteTable, decode_qrp, encode_qrp
from .servent import GnutellaServent

__all__ = ["TopologyConfig", "link_peers", "attach_leaf", "build_topology",
           "sync_leaf_qrt"]


class TopologyConfig:
    """Mesh shape parameters (scaled-down 2006 defaults)."""

    def __init__(self, ultrapeer_degree: int = 6,
                 leaf_attachments: int = 2) -> None:
        if ultrapeer_degree < 2:
            raise ValueError("ultrapeer mesh needs degree >= 2")
        if leaf_attachments < 1:
            raise ValueError("leaves need at least one ultrapeer")
        self.ultrapeer_degree = ultrapeer_degree
        self.leaf_attachments = leaf_attachments


def _run_handshake(initiator: GnutellaServent,
                   acceptor: GnutellaServent) -> None:
    """Execute the three handshake legs through encode/decode."""
    leg1 = HandshakeMessage.decode(connect_request(
        initiator.user_agent, ultrapeer=initiator.role == "ultrapeer",
        listen_ip=initiator.advertised_address, port=initiator.port,
    ).encode())
    leg2 = HandshakeMessage.decode(accept_response(
        acceptor.user_agent, ultrapeer=acceptor.role == "ultrapeer",
        ultrapeer_needed=None if initiator.role == "leaf" else True,
    ).encode())
    negotiate_roles(leg1, leg2)  # raises on rejection
    HandshakeMessage.decode(final_ack(initiator.user_agent).encode())


def sync_leaf_qrt(leaf: GnutellaServent, ultrapeer: GnutellaServent) -> None:
    """Ship the leaf's QRT to an ultrapeer through the QRP wire form.

    Runs whenever a leaf's session with a shield comes up: at attach, and
    on every churn reconnect -- the shield dropped the table on the leaf's
    Bye, so the leaf re-advertises it; most calls are these.  A latent
    host that becomes infected re-advertises too (an echo strain's table
    is all-ones).

    The leaf's table is built on every call.  A table that differs from
    the one this leaf's last sync decoded is encoded, decoded and checked
    as RESET + PATCH messages; one equal to it (most calls: reconnects,
    and the second shield at attach) is not sent through the codecs
    again, and the ultrapeer gets the table already decoded.  Shields
    share that object, so nothing may mutate an installed table.
    """
    table = leaf.build_route_table()
    if table != leaf.synced_route_table:
        wire = [encode_qrp(message) for message in table.to_messages()]
        received = [decode_qrp(payload) for payload in wire]
        leaf.synced_route_table = QueryRouteTable.from_messages(received)
    ultrapeer.install_leaf_table(leaf.endpoint_id, leaf.synced_route_table)


_sync_qrp = sync_leaf_qrt  # internal alias used by the builders below


def link_peers(a: GnutellaServent, b: GnutellaServent) -> None:
    """Create a bidirectional ultrapeer-ultrapeer link."""
    if a.endpoint_id == b.endpoint_id:
        raise ValueError("cannot link a servent to itself")
    if b.endpoint_id in a.peer_ids:
        return
    _run_handshake(a, b)
    a.peer_ids.append(b.endpoint_id)
    b.peer_ids.append(a.endpoint_id)


def attach_leaf(leaf: GnutellaServent, ultrapeer: GnutellaServent) -> None:
    """Attach a leaf under an ultrapeer shield, including QRP sync."""
    if ultrapeer.role != "ultrapeer":
        raise ValueError(f"{ultrapeer.endpoint_id} is not an ultrapeer")
    if ultrapeer.endpoint_id in leaf.peer_ids:
        return
    _run_handshake(leaf, ultrapeer)
    leaf.peer_ids.append(ultrapeer.endpoint_id)
    _sync_qrp(leaf, ultrapeer)


def build_topology(ultrapeers: Sequence[GnutellaServent],
                   leaves: Sequence[GnutellaServent],
                   stream: SeededStream,
                   config: TopologyConfig) -> Dict[str, List[str]]:
    """Wire the whole overlay; returns an adjacency map for inspection."""
    count = len(ultrapeers)
    if count < 2:
        raise ValueError("need at least two ultrapeers")

    # ring for guaranteed connectivity
    for index, ultrapeer in enumerate(ultrapeers):
        link_peers(ultrapeer, ultrapeers[(index + 1) % count])
    # random chords up to the target degree
    for ultrapeer in ultrapeers:
        attempts = 0
        while (len(ultrapeer.peer_ids) < config.ultrapeer_degree
               and attempts < 20 * config.ultrapeer_degree):
            attempts += 1
            other = stream.choice(ultrapeers)
            if other.endpoint_id == ultrapeer.endpoint_id:
                continue
            if len(other.peer_ids) >= config.ultrapeer_degree + 2:
                continue
            link_peers(ultrapeer, other)

    for leaf in leaves:
        shields = stream.sample(list(ultrapeers),
                                min(config.leaf_attachments, count))
        for ultrapeer in shields:
            attach_leaf(leaf, ultrapeer)

    adjacency = {up.endpoint_id: list(up.peer_ids) for up in ultrapeers}
    adjacency.update({leaf.endpoint_id: list(leaf.peer_ids)
                      for leaf in leaves})
    return adjacency
