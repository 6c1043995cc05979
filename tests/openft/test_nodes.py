"""Behavioural tests for OpenFT nodes."""

from repro.files.names import tokenize
from repro.openft.packets import BrowseResponse


class TestAdoption:
    def test_users_adopted_by_parents(self, ft_world):
        for user in ft_world.users:
            assert user.parent_ids, f"{user.endpoint_id} has no parents"
            for parent_id in user.parent_ids:
                parent = ft_world.network.nodes[parent_id]
                assert user.endpoint_id in parent._children

    def test_shares_indexed_at_parents(self, ft_world):
        user = ft_world.users[2]
        parent = ft_world.network.nodes[user.parent_ids[0]]
        indexed = [key for key in parent._records
                   if key[0] == user.endpoint_id]
        assert len(indexed) == len(user.library)

    def test_capacity_limit_respected(self, sim):
        from repro.openft.constants import CLASS_SEARCH, CLASS_USER
        from repro.openft.nodes import OpenFTNode
        from repro.simnet.addresses import AddressAllocator
        from repro.simnet.transport import Transport
        transport = Transport(sim)
        allocator = AddressAllocator(sim.stream("a"))
        parent = OpenFTNode(sim, transport, "parent", allocator.allocate(),
                            klass=CLASS_SEARCH, max_children=2)
        users = [OpenFTNode(sim, transport, f"u{i}", allocator.allocate(),
                            klass=CLASS_USER) for i in range(4)]
        for user in users:
            user.request_parent("parent")
        sim.run_until(60.0)
        adopted = [user for user in users if user.parent_ids]
        assert len(adopted) == 2


class TestSearch:
    def test_mesh_forward_lowers_the_ttl(self, sim):
        # a three-node clique: the first search node forwards with ttl
        # 0, and its peers serve the search without forwarding it again
        from repro.openft.constants import CLASS_SEARCH
        from repro.openft.nodes import OpenFTNode
        from repro.openft.packets import SearchRequest, encode_packet
        from repro.simnet.addresses import AddressAllocator
        from repro.simnet.transport import Transport
        transport = Transport(sim)
        allocator = AddressAllocator(sim.stream("a"))
        mesh = [OpenFTNode(sim, transport, f"search{i}",
                           allocator.allocate(), klass=CLASS_SEARCH)
                for i in range(3)]
        for node in mesh:
            node.search_peer_ids = [peer.endpoint_id for peer in mesh
                                    if peer is not node]
        transport.attach("user", lambda envelope: None)
        transport.send("user", "search0", encode_packet(
            SearchRequest(search_id=7, ttl=1, query="free music")))
        sim.run_until(60.0)
        assert [node.stats.searches_seen for node in mesh] == [1, 1, 1]
        assert [node.stats.searches_forwarded for node in mesh] == [2, 0, 0]

    def test_search_returns_matching_shares(self, ft_world):
        user = ft_world.users[3]
        shared = next(iter(user.library))
        query = " ".join(sorted(shared.tokens)[:2])
        _, results = ft_world.search(query)
        md5s = {result.md5 for result in results}
        assert shared.blob.md5_hex() in md5s

    def test_results_carry_sharer_address(self, ft_world):
        natted = ft_world.users[1]
        shared = next(iter(natted.library))
        query = " ".join(sorted(shared.tokens)[:2])
        _, results = ft_world.search(query)
        hosts = {result.host for result in results
                 if result.md5 == shared.blob.md5_hex()}
        assert natted.address.advertised in hosts

    def test_bait_copies_surface_in_popular_searches(self, ft_world):
        # some popular query must surface the infected user's bait copies
        from repro.files.names import POPULAR_QUERIES
        from repro.malware.infection import strain_body_blob
        body_md5 = strain_body_blob(ft_world.strains[0]).md5_hex()
        seen = set()
        for query in POPULAR_QUERIES:
            _, results = ft_world.search(query)
            seen.update(result.md5 for result in results)
        assert body_md5 in seen

    def test_no_match_returns_only_end_markers(self, ft_world):
        _, results = ft_world.search("zebra quantum xylophone")
        assert results == []

    def test_end_markers_arrive(self, ft_world):
        ft_world.results.clear()
        ft_world.crawler.originate_search("free music")
        ft_world.sim.run_until(ft_world.sim.now + 60.0)
        markers = [r for r in ft_world.results if r.is_end_marker]
        assert markers  # at least the parents' local end markers

    def test_search_result_tokens_match_query(self, ft_world):
        _, results = ft_world.search("free music")
        for result in results:
            assert {"free", "music"} <= tokenize(result.filename)


class TestShareLifecycle:
    def test_drop_child_removes_index(self, ft_world):
        user = ft_world.users[3]
        parent = ft_world.network.nodes[user.parent_ids[0]]
        parent.drop_child(user.endpoint_id)
        indexed = [key for key in parent._records
                   if key[0] == user.endpoint_id]
        assert indexed == []

    def test_remshare_removes_all_names_of_content(self, sim, ft_world):
        from repro.openft.packets import RemShare
        infected = ft_world.users[0]
        parent = ft_world.network.nodes[infected.parent_ids[0]]
        from repro.malware.infection import strain_body_blob
        md5 = strain_body_blob(ft_world.strains[0]).md5_hex()
        before = [key for key in parent._records
                  if key[0] == infected.endpoint_id and key[1] == md5]
        assert len(before) > 1  # multiple bait names, same content
        ft_world.transport.send(infected.endpoint_id, parent.endpoint_id,
                                __import__("repro.openft.packets",
                                           fromlist=["encode_packet"]
                                           ).encode_packet(RemShare(md5=md5)))
        sim.run_until(sim.now + 30.0)
        after = [key for key in parent._records
                 if key[0] == infected.endpoint_id and key[1] == md5]
        assert after == []

    def test_stale_index_serves_offline_host(self, ft_world):
        user = ft_world.users[3]
        shared = next(iter(user.library))
        ft_world.transport.set_online(user.endpoint_id, False)
        query = " ".join(sorted(shared.tokens)[:2])
        _, results = ft_world.search(query)
        # the index still answers, though the host is gone
        assert any(result.md5 == shared.blob.md5_hex()
                   for result in results)


class TestBrowse:
    def test_browse_lists_shares(self, ft_world):
        user = ft_world.users[4]
        listings = []
        ft_world.crawler.on_browse_result = listings.append
        ft_world.crawler.originate_browse(user.endpoint_id)
        ft_world.sim.run_until(ft_world.sim.now + 30.0)
        real = [item for item in listings if not item.is_end_marker]
        assert len(real) == len(user.library)
        assert any(item.is_end_marker for item in listings)


class TestNodeInfo:
    def test_nodeinfo_roundtrip(self, ft_world):
        info = ft_world.search_nodes[0].node_info()
        assert info.klass & 0x02  # SEARCH class
        assert info.port == 1215


class TestStats:
    def test_crawler_collects_stats(self, ft_world):
        collected = []
        ft_world.crawler.on_stats = (
            lambda src, stats: collected.append((src, stats)))
        for node in ft_world.search_nodes:
            ft_world.crawler.request_stats(node.endpoint_id)
        ft_world.sim.run_until(ft_world.sim.now + 30.0)
        assert len(collected) == len(ft_world.search_nodes)
        total_children = sum(stats.users for _, stats in collected)
        # every user has 2 parents among 2 search nodes (plus the crawler)
        assert total_children >= 2 * len(ft_world.users)
        assert all(stats.shares > 0 for _, stats in collected)

    def test_stats_reflect_dropped_children(self, ft_world):
        parent = ft_world.search_nodes[0]
        user = ft_world.users[3]
        before = len(parent._children)
        parent.drop_child(user.endpoint_id)
        collected = []
        ft_world.crawler.on_stats = (
            lambda src, stats: collected.append(stats))
        ft_world.crawler.request_stats(parent.endpoint_id)
        ft_world.sim.run_until(ft_world.sim.now + 30.0)
        assert collected[0].users == before - 1
