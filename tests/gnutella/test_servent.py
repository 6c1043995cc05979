"""Behavioural tests for the Gnutella servent."""

from repro.gnutella.constants import DESCRIPTOR_QUERY
from repro.gnutella.guid import guid_hex, new_guid
from repro.gnutella.messages import Header, Ping, Pong, frame, parse_frame
from repro.simnet.transport import Envelope


class TestQueryFlow:
    def test_echo_hosts_answer_any_query(self, world):
        _, hits = world.query("zebra quantum xylophone")
        # nothing clean matches that, so every hit is a worm echo
        assert hits
        for hit, _ in hits:
            for result in hit.results:
                assert result.file_size == world.strains[0].primary_size()

    def test_echo_filename_echoes_query(self, world):
        _, hits = world.query("norton full")
        names = [result.filename for hit, _ in hits
                 for result in hit.results]
        assert any("norton" in name and "full" in name for name in names)

    def test_responder_self_reports_private_address(self, world):
        # leaf0 is NATed and echo-infected; find its hit
        _, hits = world.query("anything here")
        leaf0 = world.leaves[0]
        from_leaf0 = [hit for hit, _ in hits
                      if hit.servent_guid == leaf0.servent_guid]
        assert from_leaf0
        assert from_leaf0[0].address == leaf0.address.advertised
        assert from_leaf0[0].push_needed

    def test_hits_carry_urns(self, world):
        _, hits = world.query("free music")
        for hit, _ in hits:
            for result in hit.results:
                assert result.sha1_urn.startswith("urn:sha1:")

    def test_duplicate_queries_suppressed(self, world):
        # each responder answers a given query GUID at most once
        _, hits = world.query("windows keygen")
        responders = [guid_hex(hit.servent_guid) for hit, _ in hits]
        assert len(responders) == len(set(responders))

    def test_offline_leaf_does_not_answer(self, world):
        target = world.leaves[1]  # echo-infected
        world.transport.set_online(target.endpoint_id, False)
        _, hits = world.query("some random query")
        assert all(hit.servent_guid != target.servent_guid
                   for hit, _ in hits)

    def test_clean_match_found(self, world):
        # query for a work some leaf certainly shares
        shared = next(iter(world.leaves[5].library))
        query = " ".join(sorted(shared.tokens)[:2])
        _, hits = world.query(query)
        urns = {result.sha1_urn for hit, _ in hits
                for result in hit.results}
        assert shared.sha1_urn in urns

    def test_stats_counters_move(self, world):
        world.query("photoshop crack")
        assert world.crawler.stats.hits_received_local > 0
        assert any(up.stats.queries_seen > 0 for up in world.ultrapeers)
        assert any(up.stats.hits_forwarded > 0 for up in world.ultrapeers)


class TestPingPong:
    def test_ping_answered_with_pong(self, world):
        crawler = world.crawler
        pongs = []
        original = crawler._on_envelope

        def spy(envelope):
            header, payload = parse_frame(envelope.payload)
            from repro.gnutella.messages import decode_payload
            message = decode_payload(header, payload)
            if isinstance(message, Pong):
                pongs.append(message)
            original(envelope)

        world.transport.endpoint(crawler.endpoint_id).on_message = spy
        crawler.send_ping()
        world.sim.run_until(world.sim.now + 30.0)
        assert pongs
        assert all(pong.port > 0 for pong in pongs)


class TestBye:
    def test_bye_drops_leaf_table(self, world):
        leaf = world.leaves[3]
        shield = world.network.servents[leaf.peer_ids[0]]
        assert leaf.endpoint_id in shield.leaf_tables
        leaf.send_bye()
        world.sim.run_until(world.sim.now + 10.0)
        assert leaf.endpoint_id not in shield.leaf_tables

    def test_departed_leaf_gets_no_queries(self, world):
        leaf = world.leaves[3]
        before = leaf.stats.queries_seen
        leaf.send_bye()
        world.sim.run_until(world.sim.now + 10.0)
        shared = next(iter(leaf.library))
        world.query(" ".join(sorted(shared.tokens)[:2]))
        assert leaf.stats.queries_seen == before


class TestRoles:
    def test_leaf_never_forwards(self, world):
        world.query("office serial")
        for leaf in world.leaves:
            assert leaf.stats.queries_forwarded_peers == 0
            assert leaf.stats.queries_forwarded_leaves == 0

    def test_decode_errors_counted_not_fatal(self, world):
        up = world.ultrapeers[0]
        world.transport.send(world.crawler.endpoint_id, up.endpoint_id,
                             b"garbage-bytes")
        world.sim.run_until(world.sim.now + 10.0)
        assert up.stats.decode_errors == 1

    def test_malformed_query_counts_every_delivery(self, world):
        # Query.decode is memoized per payload, but keeps no exception:
        # the same unterminated criteria fails both deliveries
        up = world.ultrapeers[0]
        payload = b"\x00\x00no-nul-here"
        raw = Header(new_guid(world.sim.stream("bad-query")),
                     DESCRIPTOR_QUERY, ttl=3, hops=0,
                     payload_length=len(payload)).encode() + payload
        for _ in range(2):
            up._on_envelope(Envelope(world.crawler.endpoint_id,
                                     up.endpoint_id, raw, world.sim.now))
        assert up.stats.decode_errors == 2
        assert up.stats.queries_seen == 0
