"""Tests for the OpenFT network facade."""

import pytest

import repro.openft.network as network_module


class TestLookup:
    def test_node_by_host(self, ft_world):
        user = ft_world.users[2]
        assert ft_world.network.node_by_host(
            user.address.advertised) is user

    def test_unknown_host(self, ft_world):
        assert ft_world.network.node_by_host("203.0.113.99") is None

    def test_online_count(self, ft_world):
        total = len(ft_world.network.nodes)
        assert ft_world.network.online_count() == total
        ft_world.transport.set_online("user5", False)
        assert ft_world.network.online_count() == total - 1

    def test_desired_parents_recorded(self, ft_world):
        for user in ft_world.users:
            desired = ft_world.network.desired_parents[user.endpoint_id]
            assert len(desired) == 2


class TestFetch:
    def test_fetch_shared_file(self, ft_world):
        user = ft_world.users[2]
        shared = next(iter(user.library))
        blob = ft_world.network.fetch(user.address.advertised,
                                      shared.blob.md5_hex())
        assert blob is shared.blob

    def test_fetch_offline_fails(self, ft_world):
        user = ft_world.users[2]
        shared = next(iter(user.library))
        ft_world.transport.set_online(user.endpoint_id, False)
        assert ft_world.network.fetch(user.address.advertised,
                                      shared.blob.md5_hex()) is None

    def test_fetch_unknown_md5_fails(self, ft_world):
        user = ft_world.users[2]
        assert ft_world.network.fetch(user.address.advertised,
                                      "f" * 32) is None

    def test_fetch_malware_body_from_infected(self, ft_world):
        from repro.malware.infection import strain_body_blob
        infected = ft_world.users[0]
        body = strain_body_blob(ft_world.strains[0])
        blob = ft_world.network.fetch(infected.address.advertised,
                                      body.md5_hex())
        assert blob is not None
        assert blob.contains_marker(ft_world.strains[0].marker)

    def test_fetch_malware_from_clean_host_fails(self, ft_world):
        from repro.malware.infection import strain_body_blob
        clean = ft_world.users[4]
        body = strain_body_blob(ft_world.strains[0])
        assert ft_world.network.fetch(clean.address.advertised,
                                      body.md5_hex()) is None

    @pytest.mark.parametrize("status", [200, 404, 503])
    def test_memoized_heads_fetch_what_the_codec_fetches(self, ft_world,
                                                         monkeypatch,
                                                         status):
        user = ft_world.users[2]
        shared = next(iter(user.library))
        md5 = shared.blob.md5_hex() if status != 404 else "f" * 32
        monkeypatch.setattr(ft_world.network, "BUSY_PROBABILITY",
                            1.0 if status == 503 else 0.0)
        host = user.address.advertised
        memoized = [ft_world.network.fetch(host, md5) for _ in range(2)]
        # the unmemoized path: every head through the codec
        monkeypatch.setattr(network_module, "received_request",
                            network_module.received_request.__wrapped__)
        monkeypatch.setattr(network_module, "received_response",
                            network_module.received_response.__wrapped__)
        plain = [ft_world.network.fetch(host, md5) for _ in range(2)]
        expected = shared.blob if status == 200 else None
        assert all(blob is expected for blob in memoized + plain)


class TestPushRelay:
    def test_natted_fetch_requires_requester(self, ft_world):
        natted = ft_world.users[1]
        shared = next(iter(natted.library))
        assert ft_world.network.fetch(natted.address.advertised,
                                      shared.blob.md5_hex()) is None

    def test_natted_fetch_via_relay(self, ft_world):
        natted = ft_world.users[1]
        shared = next(iter(natted.library))
        blob = ft_world.network.fetch(natted.address.advertised,
                                      shared.blob.md5_hex(),
                                      requester_id="crawler")
        assert blob is shared.blob

    def test_relay_fails_when_parents_offline(self, ft_world):
        natted = ft_world.users[1]
        shared = next(iter(natted.library))
        for parent_id in natted.parent_ids:
            ft_world.transport.set_online(parent_id, False)
        assert ft_world.network.fetch(natted.address.advertised,
                                      shared.blob.md5_hex(),
                                      requester_id="crawler") is None

    def test_relay_fails_after_parent_dropped_child(self, ft_world):
        natted = ft_world.users[1]
        shared = next(iter(natted.library))
        for parent_id in natted.parent_ids:
            ft_world.network.nodes[parent_id].drop_child(
                natted.endpoint_id)
        assert not ft_world.network.relay_push("crawler", natted,
                                               shared.blob.md5_hex())


class TestCrawler:
    def test_crawler_adopted(self, ft_world):
        assert ft_world.crawler.parent_ids
        for parent_id in ft_world.crawler.parent_ids:
            parent = ft_world.network.nodes[parent_id]
            assert "crawler" in parent._children


class TestNodeListDiscovery:
    def test_nodelist_answered(self, ft_world):
        lists = []
        ft_world.crawler.on_nodelist = (
            lambda src, response: lists.append(response))
        ft_world.crawler.request_nodelist(
            ft_world.search_nodes[0].endpoint_id)
        ft_world.sim.run_until(ft_world.sim.now + 30.0)
        assert lists
        hosts = {entry.host for entry in lists[0].entries}
        # the seed advertises itself and its mesh peers
        for node in ft_world.search_nodes:
            assert node.advertised_address in hosts

    def test_bootstrap_crawler_adopts_via_discovery(self, ft_world):
        crawler = ft_world.network.bootstrap_crawler(
            "crawler2", ft_world.allocator.allocate())
        ft_world.sim.run_until(ft_world.sim.now + 60.0)
        assert crawler.parent_ids
        for parent_id in crawler.parent_ids:
            parent = ft_world.network.nodes[parent_id]
            assert parent.is_search_node
            assert "crawler2" in parent._children

    def test_bootstrapped_crawler_searches(self, ft_world):
        crawler = ft_world.network.bootstrap_crawler(
            "crawler3", ft_world.allocator.allocate())
        ft_world.sim.run_until(ft_world.sim.now + 60.0)
        results = []
        crawler.on_search_result = results.append
        user = ft_world.users[3]
        shared = next(iter(user.library))
        crawler.originate_search(" ".join(sorted(shared.tokens)[:2]))
        ft_world.sim.run_until(ft_world.sim.now + 60.0)
        real = [r for r in results if not r.is_end_marker]
        assert any(r.md5 == shared.blob.md5_hex() for r in real)
