"""Tests for the Gnutella network facade."""

import pytest

from repro.gnutella.guid import new_guid
from repro.gnutella.network import GnutellaNetwork
from repro.gnutella.servent import GnutellaServent
from repro.simnet.addresses import AddressAllocator
from repro.simnet.transport import Transport


class TestLookup:
    def test_servent_by_guid(self, world):
        leaf = world.leaves[3]
        assert world.network.servent_by_guid(leaf.servent_guid) is leaf

    def test_unknown_guid(self, world):
        ghost = new_guid(world.sim.stream("ghost"))
        assert world.network.servent_by_guid(ghost) is None

    def test_online_count(self, world):
        total = len(world.network.servents)
        assert world.network.online_count() == total
        world.transport.set_online("leaf3", False)
        assert world.network.online_count() == total - 1


class TestFetch:
    def test_fetch_shared_file(self, world):
        leaf = world.leaves[4]
        shared = next(iter(leaf.library))
        blob = world.network.fetch(leaf.servent_guid, shared.sha1_urn)
        assert blob is shared.blob

    def test_fetch_from_offline_host_fails(self, world):
        leaf = world.leaves[4]
        shared = next(iter(leaf.library))
        world.transport.set_online(leaf.endpoint_id, False)
        assert world.network.fetch(leaf.servent_guid,
                                   shared.sha1_urn) is None

    def test_fetch_unknown_urn_fails(self, world):
        leaf = world.leaves[4]
        assert world.network.fetch(leaf.servent_guid,
                                   "urn:sha1:DOESNOTEXIST") is None

    def test_fetch_echo_body_from_infected_host(self, world):
        from repro.malware.infection import strain_body_blob
        infected = world.leaves[1]  # echo-infected, public address
        body = strain_body_blob(world.strains[0])
        blob = world.network.fetch(infected.servent_guid, body.sha1_urn())
        assert blob is not None
        assert blob.contains_marker(world.strains[0].marker)

    def test_fetch_echo_body_from_clean_host_fails(self, world):
        from repro.malware.infection import strain_body_blob
        clean = world.leaves[5]
        body = strain_body_blob(world.strains[0])
        assert world.network.fetch(clean.servent_guid,
                                   body.sha1_urn()) is None


class TestPush:
    def _hit_from_natted(self, world):
        """Query until the NATed echo leaf (leaf0) responds."""
        leaf0 = world.leaves[0]
        _, hits = world.query("push test query")
        return next(hit for hit, _ in hits
                    if hit.servent_guid == leaf0.servent_guid)

    def test_natted_fetch_requires_requester(self, world):
        hit = self._hit_from_natted(world)
        urn = hit.results[0].sha1_urn
        # no inbound path without a PUSH route
        assert world.network.fetch(hit.servent_guid, urn) is None

    def test_natted_fetch_via_push_route(self, world):
        hit = self._hit_from_natted(world)
        urn = hit.results[0].sha1_urn
        blob = world.network.fetch(hit.servent_guid, urn,
                                   requester_id="crawler")
        assert blob is not None
        assert blob.size == hit.results[0].file_size

    def test_route_push_directly(self, world):
        hit = self._hit_from_natted(world)
        assert world.network.route_push("crawler", hit.servent_guid)

    def test_push_fails_when_path_node_offline(self, world):
        hit = self._hit_from_natted(world)
        # take down the crawler's recorded next hop for this route
        next_hop = world.crawler.push_next_hop(hit.servent_guid)
        assert next_hop is not None
        world.transport.set_online(next_hop, False)
        assert not world.network.route_push("crawler", hit.servent_guid)
        assert world.network.fetch(hit.servent_guid,
                                   hit.results[0].sha1_urn,
                                   requester_id="crawler") is None

    def test_push_fails_without_prior_hit(self, world):
        # a fresh crawler that never saw a hit has no route to retrace
        leaf0 = world.leaves[0]
        crawler2 = world.network.create_crawler(
            "crawler2", world.allocator.allocate())
        assert not world.network.route_push("crawler2",
                                            leaf0.servent_guid)

    def test_push_to_unknown_guid_fails(self, world):
        from repro.gnutella.guid import new_guid
        ghost = new_guid(world.sim.stream("ghost2"))
        assert not world.network.route_push("crawler", ghost)

    @pytest.mark.parametrize("hops, reached", [(1, True), (7, True),
                                               (8, True), (9, False)])
    def test_push_walk_reaches_max_push_hops(self, sim, hops, reached):
        # a chain of recorded push routes, requester -> ... -> responder
        transport = Transport(sim)
        allocator = AddressAllocator(sim.stream("addr"))
        chain = [GnutellaServent(sim, transport, f"hop{index}",
                                 allocator.allocate())
                 for index in range(hops + 1)]
        responder = chain[-1]
        for here, there in zip(chain, chain[1:]):
            here._remember_push_route(responder.servent_guid,
                                      there.endpoint_id)
        network = GnutellaNetwork(sim, transport, [], chain)
        assert network.MAX_PUSH_HOPS == 8
        assert network.route_push("hop0", responder.servent_guid) is reached


class TestCrawler:
    def test_crawler_attached_to_ultrapeers(self, world):
        assert world.crawler.peer_ids
        for up_id in world.crawler.peer_ids:
            up = world.network.servents[up_id]
            assert up.role == "ultrapeer"
            assert "crawler" in up.leaf_tables

    def test_crawler_registered_in_network(self, world):
        assert world.network.servents["crawler"] is world.crawler
        assert world.network.servent_by_guid(
            world.crawler.servent_guid) is world.crawler
