"""Tests for topology construction."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.measure.campaign import (CampaignConfig, default_profile,
                                         run_limewire_campaign)
from repro.files.library import SharedFile
from repro.files.payload import Blob
from repro.gnutella.qrp import QueryRouteTable, decode_qrp, encode_qrp
from repro.gnutella.servent import GnutellaServent
from repro.gnutella.topology import (TopologyConfig, attach_leaf,
                                     build_topology, link_peers,
                                     sync_leaf_qrt)
from repro.malware.corpus import limewire_strains
from repro.malware.infection import HostInfection
from repro.malware.strain import Behaviour
from repro.simnet.addresses import AddressAllocator
from repro.simnet.kernel import Simulator
from repro.simnet.transport import Transport

from ..integration.golden import SCALE


def make_servents(sim, ultrapeer_count, leaf_count):
    transport = Transport(sim)
    allocator = AddressAllocator(sim.stream("addr"))
    ultrapeers = [GnutellaServent(sim, transport, f"up{i}",
                                  allocator.allocate(), role="ultrapeer")
                  for i in range(ultrapeer_count)]
    leaves = [GnutellaServent(sim, transport, f"leaf{i}",
                              allocator.allocate(), role="leaf")
              for i in range(leaf_count)]
    return transport, ultrapeers, leaves


class TestBuildTopology:
    def test_mesh_connected_via_ring(self, sim):
        _, ultrapeers, leaves = make_servents(sim, 10, 0)
        adjacency = build_topology(ultrapeers, leaves, sim.stream("t"),
                                   TopologyConfig(ultrapeer_degree=4))
        # BFS from up0 must reach every ultrapeer
        seen, frontier = {"up0"}, ["up0"]
        while frontier:
            current = frontier.pop()
            for neighbor in adjacency[current]:
                if neighbor not in seen:
                    seen.add(neighbor)
                    frontier.append(neighbor)
        assert len(seen) == 10

    def test_degrees_near_target(self, sim):
        _, ultrapeers, _ = make_servents(sim, 12, 0)
        build_topology(ultrapeers, [], sim.stream("t"),
                       TopologyConfig(ultrapeer_degree=5))
        for ultrapeer in ultrapeers:
            assert 2 <= len(ultrapeer.peer_ids) <= 7

    def test_leaf_attachments(self, sim):
        _, ultrapeers, leaves = make_servents(sim, 6, 8)
        build_topology(ultrapeers, leaves, sim.stream("t"),
                       TopologyConfig(leaf_attachments=2))
        for leaf in leaves:
            assert len(leaf.peer_ids) == 2
            for up_id in leaf.peer_ids:
                ultrapeer = next(up for up in ultrapeers
                                 if up.endpoint_id == up_id)
                assert leaf.endpoint_id in ultrapeer.leaf_tables

    def test_qrt_installed_matches_library(self, sim):
        _, ultrapeers, leaves = make_servents(sim, 3, 1)
        leaf = leaves[0]
        blob = Blob(content_key="k", extension="zip", size=10)
        leaf.library.add(SharedFile.make("unique_marker_words.zip", 10,
                                         "zip", blob))
        build_topology(ultrapeers, leaves, sim.stream("t"),
                       TopologyConfig(leaf_attachments=1))
        up = next(u for u in ultrapeers
                  if leaf.endpoint_id in u.leaf_tables)
        table = up.leaf_tables[leaf.endpoint_id]
        assert table.might_match("unique marker")
        assert not table.might_match("absent words")

    def test_needs_two_ultrapeers(self, sim):
        _, ultrapeers, _ = make_servents(sim, 1, 0)
        with pytest.raises(ValueError):
            build_topology(ultrapeers, [], sim.stream("t"),
                           TopologyConfig())


class TestLinkHelpers:
    def test_link_peers_bidirectional(self, sim):
        _, ultrapeers, _ = make_servents(sim, 2, 0)
        link_peers(ultrapeers[0], ultrapeers[1])
        assert ultrapeers[1].endpoint_id in ultrapeers[0].peer_ids
        assert ultrapeers[0].endpoint_id in ultrapeers[1].peer_ids

    def test_link_idempotent(self, sim):
        _, ultrapeers, _ = make_servents(sim, 2, 0)
        link_peers(ultrapeers[0], ultrapeers[1])
        link_peers(ultrapeers[0], ultrapeers[1])
        assert len(ultrapeers[0].peer_ids) == 1

    def test_self_link_rejected(self, sim):
        _, ultrapeers, _ = make_servents(sim, 2, 0)
        with pytest.raises(ValueError):
            link_peers(ultrapeers[0], ultrapeers[0])

    def test_attach_to_non_ultrapeer_rejected(self, sim):
        _, _, leaves = make_servents(sim, 0, 2)
        with pytest.raises(ValueError):
            attach_leaf(leaves[0], leaves[1])

    def test_resync_updates_table(self, sim):
        _, ultrapeers, leaves = make_servents(sim, 2, 1)
        leaf = leaves[0]
        attach_leaf(leaf, ultrapeers[0])
        table_before = ultrapeers[0].leaf_tables[leaf.endpoint_id]
        assert not table_before.might_match("latecomer file")
        blob = Blob(content_key="late", extension="exe", size=1)
        leaf.library.add(SharedFile.make("latecomer_file.exe", 1, "exe",
                                         blob))
        sync_leaf_qrt(leaf, ultrapeers[0])
        assert ultrapeers[0].leaf_tables[leaf.endpoint_id].might_match(
            "latecomer file")


def share(leaf, *names):
    """Add one shared file per name to ``leaf``'s library."""
    for name in names:
        blob = Blob(content_key=name, extension="zip", size=10)
        leaf.library.add(SharedFile.make(name, 10, "zip", blob))


def a_strain(echo):
    """The first Limewire strain that is (or is not) a query-echo worm."""
    return next(strain for strain in limewire_strains()
                if (strain.behaviour is Behaviour.QUERY_ECHO) == echo)


class RoundTrips:
    """Counts QRP codec round trips: ``QueryRouteTable.from_messages``
    calls, which ``sync_leaf_qrt`` makes through the class."""

    def __init__(self, monkeypatch):
        self.count = 0
        self._decode = QueryRouteTable.from_messages

        def counting(messages):
            self.count += 1
            return self._decode(messages)

        monkeypatch.setattr(QueryRouteTable, "from_messages",
                            staticmethod(counting))

    def fresh(self, leaf):
        """``leaf``'s table now, after a full round trip (not counted)."""
        return self._decode(
            decode_qrp(encode_qrp(message))
            for message in leaf.build_route_table().to_messages())


def installed(ultrapeers, leaf):
    return [ultrapeer.leaf_tables[leaf.endpoint_id]
            for ultrapeer in ultrapeers]


def sync_all(leaf, ultrapeers, times=1):
    for _ in range(times):
        for ultrapeer in ultrapeers:
            sync_leaf_qrt(leaf, ultrapeer)


class TestResendMemo:
    """A leaf sends each distinct table through the codecs once."""

    def _attached(self, sim, monkeypatch, *names):
        _, ultrapeers, (leaf,) = make_servents(sim, 2, 1)
        leaf.infection = HostInfection()
        share(leaf, *names)
        trips = RoundTrips(monkeypatch)
        for ultrapeer in ultrapeers:
            attach_leaf(leaf, ultrapeer)
        assert trips.count == 1
        return ultrapeers, leaf, trips

    def test_an_unchanged_table_goes_through_the_codecs_once(
            self, sim, monkeypatch):
        ultrapeers, leaf, trips = self._attached(
            sim, monkeypatch, "madonna_angel.mp3", "photoshop_crack.zip")
        sync_all(leaf, ultrapeers, times=3)
        assert trips.count == 1
        first, second = installed(ultrapeers, leaf)
        assert first is second
        assert first == trips.fresh(leaf)
        assert first.might_match("madonna angel")

    @pytest.mark.parametrize("change", ["add", "remove", "echo infection",
                                        "resident infection"])
    def test_each_table_change_costs_one_round_trip(self, sim, monkeypatch,
                                                    change):
        ultrapeers, leaf, trips = self._attached(
            sim, monkeypatch, "madonna_angel.mp3", "photoshop_crack.zip")
        before = installed(ultrapeers, leaf)[0]
        if change == "add":
            share(leaf, "latecomer_file.exe")
        elif change == "remove":
            leaf.library.remove(next(
                shared.file_id for shared in leaf.library
                if "photoshop" in shared.tokens))
        else:
            leaf.infection.infect(a_strain(change == "echo infection"),
                                  leaf.library, sim.stream("infect"))
        assert leaf.build_route_table() != before
        sync_all(leaf, ultrapeers, times=2)
        assert trips.count == 2
        first, second = installed(ultrapeers, leaf)
        assert first is second
        assert first == trips.fresh(leaf)
        assert (first.set_count == first.size) == (change == "echo infection")

    def test_a_library_change_that_keeps_the_table_costs_nothing(
            self, sim, monkeypatch):
        # the memo compares tables, not library versions: these changes
        # leave the table as it was sent
        ultrapeers, leaf, trips = self._attached(sim, monkeypatch,
                                                 "madonna_angel.mp3")
        share(leaf, "angel_madonna.mp3")  # the same tokens
        sync_all(leaf, ultrapeers)
        assert trips.count == 1
        leaf.infection.infect(a_strain(True), leaf.library,
                              sim.stream("infect"))
        sync_all(leaf, ultrapeers)
        assert trips.count == 2
        # an all-ones table stays all-ones whatever else is shared
        share(leaf, "latecomer_file.exe")
        leaf.infection.infect(a_strain(False), leaf.library,
                              sim.stream("infect"))
        sync_all(leaf, ultrapeers)
        assert trips.count == 2
        assert installed(ultrapeers, leaf)[0] == trips.fresh(leaf)

    def test_a_reconnect_reinstalls_the_decoded_table(self, sim,
                                                      monkeypatch):
        ultrapeers, leaf, trips = self._attached(sim, monkeypatch,
                                                 "madonna_angel.mp3")
        sent = installed(ultrapeers, leaf)[0]
        leaf.send_bye()
        sim.run_until(sim.now + 60)
        assert all(leaf.endpoint_id not in ultrapeer.leaf_tables
                   for ultrapeer in ultrapeers)
        sync_all(leaf, ultrapeers)
        assert trips.count == 1
        assert all(table is sent for table in installed(ultrapeers, leaf))

    _steps = st.lists(st.one_of(
        st.tuples(st.just("add"), st.sampled_from(
            ["madonna_angel.mp3", "angel_madonna.mp3", "photoshop_crack.zip",
             "latecomer_file.exe", "a_b.mp3"])),
        st.tuples(st.just("remove"), st.integers(0, 31)),
        st.tuples(st.just("infect"),
                  st.integers(0, len(limewire_strains()) - 1)),
        st.tuples(st.just("sync"), st.sampled_from([(0,), (1,), (0, 1),
                                                    (1, 0)])),
        st.tuples(st.just("bye"), st.none()),
    ), max_size=30)

    @given(steps=_steps)
    @settings(max_examples=60, deadline=None)
    def test_random_changes_syncs_and_byes(self, steps):
        strains = limewire_strains()
        with pytest.MonkeyPatch.context() as monkeypatch:
            sim = Simulator(seed=17)
            ultrapeers, leaf, trips = self._attached(sim, monkeypatch)
            # model: the table of the last sync; a sync whose table
            # differs from it is the only kind that costs a round trip
            last_synced, expected = leaf.build_route_table(), 1
            for action, argument in steps:
                if action == "add":
                    share(leaf, argument)
                elif action == "remove":
                    files = list(leaf.library)
                    if files:
                        leaf.library.remove(
                            files[argument % len(files)].file_id)
                elif action == "infect":
                    leaf.infection.infect(strains[argument], leaf.library,
                                          sim.stream("infect"))
                elif action == "bye":
                    leaf.send_bye()
                    sim.run_until(sim.now + 60)
                    assert all(leaf.endpoint_id not in ultrapeer.leaf_tables
                               for ultrapeer in ultrapeers)
                else:
                    current = leaf.build_route_table()
                    if current != last_synced:
                        last_synced, expected = current, expected + 1
                    shields = [ultrapeers[index] for index in argument]
                    sync_all(leaf, shields)
                    assert trips.count == expected
                    tables = installed(shields, leaf)
                    assert all(table is tables[0] for table in tables)
                    assert tables[0] == trips.fresh(leaf)


@pytest.mark.parametrize("seed", [5, 13])
def test_campaign_shields_hold_each_leafs_current_table(seed):
    """After a small Limewire campaign every installed table is the one
    its leaf would build now: a stale re-send memo would show here.

    Latent hosts activate in 0.5-day steps, the only changes to a leaf's
    table after the build, so the campaign runs past the first step.
    """
    profile = default_profile("limewire", SCALE)
    result = run_limewire_campaign(
        CampaignConfig(seed=seed, duration_days=0.55), profile=profile)
    world = result.world
    seeded = sum(seeding.initial_hosts
                 for seeding in profile.seeding.values())
    assert len(world.infected_endpoints()) > seeded
    checked = 0
    for ultrapeer in world.network.ultrapeers:
        for leaf_id, table in ultrapeer.leaf_tables.items():
            leaf = world.network.servents[leaf_id]
            assert table == leaf.build_route_table(), (
                f"{ultrapeer.endpoint_id} holds a stale table for {leaf_id}")
            checked += 1
    assert checked > 0
