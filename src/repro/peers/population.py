"""Population builders: turn a profile into a wired, breathing overlay.

``build_gnutella_world`` / ``build_openft_world`` create the clean and
infected host populations, wire the overlay, start churn processes, and
schedule propagation-driven late infections.  They return a
:class:`BuiltWorld` carrying the network facade plus the ground truth the
analysis layer validates against (which endpoint carries which strains).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Set

from ..files.catalog import ContentCatalog
from ..files.library import SharedFile, SharedLibrary
from ..gnutella.network import GnutellaNetwork
from ..gnutella.servent import GnutellaServent
from ..gnutella.topology import (TopologyConfig, build_topology,
                                 sync_leaf_qrt)
from ..malware.infection import HostInfection
from ..malware.propagation import LogisticGrowth, PropagationSchedule
from ..malware.strain import MalwareStrain
from ..openft.constants import CLASS_SEARCH, CLASS_USER
from ..openft.network import OpenFTNetwork
from ..openft.nodes import OpenFTNode
from ..simnet.addresses import AddressAllocator
from ..simnet.churn import ALWAYS_ON, HOME_PEER, SERVER_LIKE, ChurnProcess
from ..simnet.kernel import Simulator
from ..simnet.rng import SeededStream
from ..simnet.transport import Transport
from .profiles import GnutellaProfile, OpenFTProfile, StrainSeeding

__all__ = ["BuiltWorld", "build_gnutella_world", "build_openft_world"]

_CHURN_PROFILES = (HOME_PEER, SERVER_LIKE, ALWAYS_ON)

#: 2006 Gnutella client census (approximate LimeWire-era shares); vendor
#: codes in query hits follow from these.
_USER_AGENTS = ("LimeWire/4.12.3", "BearShare/5.2.5", "Shareaza/2.2.1",
                "Gnucleus/2.0.2")
_USER_AGENT_WEIGHTS = (0.68, 0.15, 0.11, 0.06)

#: How long an OpenFT parent takes to notice a dropped child's TCP session.
_PARENT_DROP_DELAY_S = 600.0


@dataclass
class BuiltWorld:
    """Everything a campaign needs, plus ground truth for validation."""

    sim: Simulator
    transport: Transport
    network: object  # GnutellaNetwork or OpenFTNetwork
    catalog: ContentCatalog
    strains: List[MalwareStrain]
    #: endpoint -> strains it carries (grows as propagation activates hosts)
    ground_truth: Dict[str, Set[str]] = field(default_factory=dict)
    #: endpoint -> HostInfection for infected/latent hosts
    infections: Dict[str, HostInfection] = field(default_factory=dict)
    churn_processes: List[ChurnProcess] = field(default_factory=list)

    def infected_endpoints(self, strain_id: Optional[str] = None) -> List[str]:
        """Endpoints carrying ``strain_id`` (or any strain when None)."""
        return sorted(
            endpoint for endpoint, strains in self.ground_truth.items()
            if strains and (strain_id is None or strain_id in strains)
        )


def _populate_library(library: SharedLibrary, catalog: ContentCatalog,
                      stream: SeededStream, low: int, high: int) -> None:
    for _ in range(stream.randint(low, high)):
        version = catalog.sample_version(stream)
        library.add(SharedFile.make(
            name=catalog.decorate_filename(version),
            size=version.size, extension=version.extension,
            blob=version.blob))


def proportioned_flags(stream: SeededStream, count: int,
                       fraction: float) -> List[bool]:
    """Exactly ``round(count*fraction)`` Trues, in shuffled order.

    Stratified assignment instead of per-host Bernoulli draws: the
    population fractions (NAT share, churn mix) are *inputs* of the
    calibration, so sampling noise on them would only add variance the
    real study's large population did not have.
    """
    trues = round(count * fraction)
    flags = [True] * trues + [False] * (count - trues)
    stream.shuffle(flags)
    return flags


def proportioned_choices(stream: SeededStream, count: int,
                         items: Sequence, weights: Sequence[float]) -> List:
    """Stratified analogue of ``choices``: exact proportions, shuffled."""
    total = sum(weights)
    picks: List = []
    for item, weight in zip(items, weights):
        picks.extend([item] * int(count * weight / total))
    index = 0
    while len(picks) < count:  # distribute rounding remainder
        picks.append(items[index % len(items)])
        index += 1
    stream.shuffle(picks)
    return picks


def _start_churn(world: BuiltWorld, endpoint_id: str, profile,
                 stream: SeededStream, horizon_s: float,
                 on_up=None, on_down=None) -> None:
    transport = world.transport

    def up() -> None:
        transport.set_online(endpoint_id, True)
        if on_up is not None:
            on_up()

    def down() -> None:
        # hooks fire first so goodbyes (Bye descriptors) can still be
        # sent while the session is up
        if on_down is not None:
            on_down()
        transport.set_online(endpoint_id, False)

    process = ChurnProcess(world.sim, stream, profile,
                           on_up=up, on_down=down, until=horizon_s)
    process.start()
    world.churn_processes.append(process)


# ---------------------------------------------------------------------------
# Gnutella
# ---------------------------------------------------------------------------

def build_gnutella_world(sim: Simulator, profile: GnutellaProfile,
                         strains: Sequence[MalwareStrain],
                         horizon_s: float) -> BuiltWorld:
    """Assemble the Limewire-side world described by ``profile``."""
    transport = Transport(sim, loss_rate=profile.loss_rate)
    allocator = AddressAllocator(sim.stream("gnutella:addr"))
    catalog = ContentCatalog(profile.catalog, sim.stream("gnutella:catalog"))
    pop_stream = sim.stream("gnutella:population")
    strain_index = {strain.strain_id: strain for strain in strains}

    ultrapeers: List[GnutellaServent] = []
    for index in range(profile.ultrapeers):
        library = SharedLibrary()
        _populate_library(library, catalog, pop_stream, *profile.library_size)
        ultrapeers.append(GnutellaServent(
            sim, transport, f"up{index}", allocator.allocate(),
            role="ultrapeer", library=library,
            dynamic_queries=profile.dynamic_queries))

    leaves: List[GnutellaServent] = []

    def make_leaf(endpoint_id: str, behind_nat: bool,
                  infection: Optional[HostInfection]) -> GnutellaServent:
        library = SharedLibrary()
        _populate_library(library, catalog, pop_stream, *profile.library_size)
        leaf = GnutellaServent(
            sim, transport, endpoint_id, allocator.allocate(behind_nat),
            role="leaf", library=library, infection=infection,
            user_agent=pop_stream.choices(
                list(_USER_AGENTS), weights=list(_USER_AGENT_WEIGHTS),
                k=1)[0])
        leaves.append(leaf)
        return leaf

    world = BuiltWorld(sim=sim, transport=transport, network=None,  # set below
                       catalog=catalog, strains=list(strains))

    clean_nat = proportioned_flags(pop_stream, profile.clean_leaves,
                                   profile.clean_nat_fraction)
    for index in range(profile.clean_leaves):
        leaf = make_leaf(f"leaf{index}", clean_nat[index], None)
        world.ground_truth[leaf.endpoint_id] = set()

    # infected + latent hosts per strain
    latent_pools: Dict[str, List[GnutellaServent]] = {}
    for strain_id, seeding in profile.seeding.items():
        strain = strain_index.get(strain_id)
        if strain is None:
            continue
        infected_nat = proportioned_flags(pop_stream, seeding.final_hosts,
                                          profile.infected_nat_fraction)
        pool: List[GnutellaServent] = []
        for index in range(seeding.final_hosts):
            infection = HostInfection()
            leaf = make_leaf(f"inf-{strain_id}-{index}",
                             infected_nat[index], infection)
            world.infections[leaf.endpoint_id] = infection
            world.ground_truth[leaf.endpoint_id] = set()
            if index < seeding.initial_hosts:
                infection.infect(strain, leaf.library, pop_stream,
                                 resident_copies=seeding.resident_copies)
                world.ground_truth[leaf.endpoint_id].add(strain_id)
            else:
                pool.append(leaf)
        latent_pools[strain_id] = pool

    build_topology(ultrapeers, leaves, sim.stream("gnutella:topology"),
                   TopologyConfig(ultrapeer_degree=profile.ultrapeer_degree,
                                  leaf_attachments=profile.leaf_attachments))

    network = GnutellaNetwork(sim, transport, ultrapeers, leaves, strains)
    world.network = network

    # churn: ultrapeers are long-lived, leaves follow the profile mix
    churn_stream = sim.stream("gnutella:churn")
    for ultrapeer in ultrapeers:
        _start_churn(world, ultrapeer.endpoint_id, SERVER_LIKE, churn_stream,
                     horizon_s)
    up_index = {up.endpoint_id: up for up in ultrapeers}
    leaf_churn = proportioned_choices(churn_stream, len(leaves),
                                      _CHURN_PROFILES,
                                      list(profile.churn_mix))

    def wire_leaf_churn(leaf: GnutellaServent, churn_profile) -> None:
        def on_up() -> None:
            # re-advertise the QRT: shields dropped it on our Bye
            for peer_id in leaf.peer_ids:
                ultrapeer = up_index.get(peer_id)
                if ultrapeer is not None:
                    sync_leaf_qrt(leaf, ultrapeer)

        _start_churn(world, leaf.endpoint_id, churn_profile, churn_stream,
                     horizon_s, on_up=on_up, on_down=leaf.send_bye)

    for leaf, churn_profile in zip(leaves, leaf_churn):
        wire_leaf_churn(leaf, churn_profile)

    # propagation: latent hosts activate along a logistic trajectory
    schedule = PropagationSchedule(sim, horizon_s)
    for strain_id, seeding in profile.seeding.items():
        strain = strain_index.get(strain_id)
        pool = latent_pools.get(strain_id, [])
        if strain is None or not pool:
            continue

        def activate(strain: MalwareStrain, index: int,
                     pool: List[GnutellaServent] = pool) -> None:
            if index >= len(pool):
                return
            leaf = pool[index]
            infection = world.infections[leaf.endpoint_id]
            seeding = profile.seeding[strain.strain_id]
            infection.infect(strain, leaf.library, pop_stream,
                             resident_copies=seeding.resident_copies)
            world.ground_truth[leaf.endpoint_id].add(strain.strain_id)
            for peer_id in leaf.peer_ids:  # re-advertise the new QRT
                ultrapeer = up_index.get(peer_id)
                if ultrapeer is not None:
                    sync_leaf_qrt(leaf, ultrapeer)

        schedule.schedule(strain, LogisticGrowth(
            initial_count=seeding.initial_hosts,
            final_count=seeding.final_hosts, horizon_s=horizon_s), activate)

    return world


# ---------------------------------------------------------------------------
# OpenFT
# ---------------------------------------------------------------------------

def build_openft_world(sim: Simulator, profile: OpenFTProfile,
                       strains: Sequence[MalwareStrain],
                       horizon_s: float) -> BuiltWorld:
    """Assemble the OpenFT-side world described by ``profile``."""
    transport = Transport(sim, loss_rate=profile.loss_rate)
    allocator = AddressAllocator(sim.stream("openft:addr"))
    catalog = ContentCatalog(profile.catalog, sim.stream("openft:catalog"))
    pop_stream = sim.stream("openft:population")
    strain_index = {strain.strain_id: strain for strain in strains}

    # capacity so the configured population actually fits under its
    # parents (real networks balanced this by promoting more search nodes)
    total_children = profile.user_nodes * profile.parents_per_user
    max_children = max(35, (total_children * 2) // profile.search_nodes)

    search_nodes: List[OpenFTNode] = []
    for index in range(profile.search_nodes):
        library = SharedLibrary()
        _populate_library(library, catalog, pop_stream, *profile.library_size)
        search_nodes.append(OpenFTNode(
            sim, transport, f"search{index}", allocator.allocate(),
            klass=CLASS_SEARCH | CLASS_USER, library=library,
            max_children=max_children))

    world = BuiltWorld(sim=sim, transport=transport, network=None,
                       catalog=catalog, strains=list(strains))

    user_nodes: List[OpenFTNode] = []

    def make_user(endpoint_id: str, behind_nat: bool,
                  infection: Optional[HostInfection]) -> OpenFTNode:
        library = SharedLibrary()
        _populate_library(library, catalog, pop_stream, *profile.library_size)
        user = OpenFTNode(sim, transport, endpoint_id,
                          allocator.allocate(behind_nat), klass=CLASS_USER,
                          library=library, infection=infection)
        user_nodes.append(user)
        return user

    clean_nat = proportioned_flags(pop_stream, profile.user_nodes,
                                   profile.clean_nat_fraction)
    for index in range(profile.user_nodes):
        user = make_user(f"user{index}", clean_nat[index], None)
        world.ground_truth[user.endpoint_id] = set()

    latent_pools: Dict[str, List[OpenFTNode]] = {}
    for strain_id, seeding in profile.seeding.items():
        strain = strain_index.get(strain_id)
        if strain is None:
            continue
        infected_nat = proportioned_flags(pop_stream, seeding.final_hosts,
                                          profile.infected_nat_fraction)
        pool: List[OpenFTNode] = []
        for index in range(seeding.final_hosts):
            infection = HostInfection()
            user = make_user(f"inf-{strain_id}-{index}",
                             (not seeding.dedicated) and infected_nat[index],
                             infection)
            world.infections[user.endpoint_id] = infection
            world.ground_truth[user.endpoint_id] = set()
            if index < seeding.initial_hosts:
                infection.infect(strain, user.library, pop_stream,
                                 resident_copies=seeding.resident_copies)
                world.ground_truth[user.endpoint_id].add(strain_id)
            else:
                pool.append(user)
        latent_pools[strain_id] = pool

    network = OpenFTNetwork(sim, transport, search_nodes, user_nodes, strains)
    world.network = network
    network.wire(sim.stream("openft:topology"),
                 parents_per_user=profile.parents_per_user)

    search_index = {node.endpoint_id: node for node in search_nodes}
    churn_stream = sim.stream("openft:churn")
    seeding_by_endpoint: Dict[str, StrainSeeding] = {}
    for strain_id, seeding in profile.seeding.items():
        for index in range(seeding.final_hosts):
            seeding_by_endpoint[f"inf-{strain_id}-{index}"] = seeding

    for node in search_nodes:
        _start_churn(world, node.endpoint_id, SERVER_LIKE, churn_stream,
                     horizon_s)

    user_churn = proportioned_choices(churn_stream, len(user_nodes),
                                      _CHURN_PROFILES,
                                      list(profile.churn_mix))
    churn_by_endpoint = {user.endpoint_id: churn
                         for user, churn in zip(user_nodes, user_churn)}

    def wire_user_churn(user: OpenFTNode) -> None:
        seeding = seeding_by_endpoint.get(user.endpoint_id)
        churn_profile = (ALWAYS_ON if seeding is not None and seeding.dedicated
                         else churn_by_endpoint[user.endpoint_id])

        def on_up() -> None:
            # re-announce shares; dropped/never-adopted parents re-adopt
            desired = network.desired_parents.get(user.endpoint_id, [])
            for parent_id in desired:
                parent = search_index.get(parent_id)
                if parent is None:
                    continue
                adopted = (parent_id in user.parent_ids
                           and user.endpoint_id in parent._children)
                if adopted:
                    user.sync_shares_to(parent_id)
                else:
                    if parent_id in user.parent_ids:
                        user.parent_ids.remove(parent_id)
                    user.request_parent(parent_id)

        def on_down() -> None:
            def drop_if_still_offline() -> None:
                if user.is_online():
                    return
                for parent_id in user.parent_ids:
                    parent = search_index.get(parent_id)
                    if parent is not None:
                        parent.drop_child(user.endpoint_id)
            sim.after(_PARENT_DROP_DELAY_S, drop_if_still_offline,
                      label="parent-drop")

        _start_churn(world, user.endpoint_id, churn_profile, churn_stream,
                     horizon_s, on_up=on_up, on_down=on_down)

    for user in user_nodes:
        wire_user_churn(user)

    schedule = PropagationSchedule(sim, horizon_s)
    for strain_id, seeding in profile.seeding.items():
        strain = strain_index.get(strain_id)
        pool = latent_pools.get(strain_id, [])
        if strain is None or not pool:
            continue

        def activate(strain: MalwareStrain, index: int,
                     pool: List[OpenFTNode] = pool) -> None:
            if index >= len(pool):
                return
            user = pool[index]
            infection = world.infections[user.endpoint_id]
            seeding = profile.seeding[strain.strain_id]
            infection.infect(strain, user.library, pop_stream,
                             resident_copies=seeding.resident_copies)
            world.ground_truth[user.endpoint_id].add(strain.strain_id)
            if user.is_online():
                user.sync_shares()

        schedule.schedule(strain, LogisticGrowth(
            initial_count=seeding.initial_hosts,
            final_count=seeding.final_hosts, horizon_s=horizon_s), activate)

    return world
