"""End-to-end campaign driver tests (on the shared session campaigns)."""

import pytest

from repro.core.measure import campaign
from repro.core.measure.campaign import CampaignConfig, campaign_runner


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            CampaignConfig(duration_days=0)
        with pytest.raises(ValueError):
            CampaignConfig(query_interval_s=-5)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("name", ["duration_days", "query_interval_s"])
    def test_rejects_non_finite(self, name, value):
        # nan slips past a "<= 0" check, and an infinite campaign never
        # reaches its horizon
        with pytest.raises(ValueError, match=f"{name} must be positive"):
            CampaignConfig(**{name: value})


class TestCampaignRunner:
    @pytest.mark.parametrize("network, name", [
        ("limewire", "run_limewire_campaign"),
        ("openft", "run_openft_campaign"),
    ])
    def test_returns_the_entry_point_bound_now(self, network, name,
                                               monkeypatch):
        # the campaign benchmark rebinds both entry points by name; a
        # caller that picks a runner by network must reach the rebound one
        def rebound(*args, **kwargs):
            raise AssertionError("never called")

        monkeypatch.setattr(campaign, name, rebound)
        assert campaign_runner(network) is rebound

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError, match="unknown network 'kazaa'"):
            campaign_runner("kazaa")


class TestLimewireCampaign:
    def test_queries_issued_matches_cadence(self, limewire_campaign):
        config = limewire_campaign.config
        expected = config.duration_days * 86400 / config.query_interval_s
        assert abs(limewire_campaign.store.queries_issued
                   - expected) <= expected * 0.15

    def test_responses_collected(self, limewire_campaign):
        assert len(limewire_campaign.store) > 1000

    def test_all_responses_download_attempted(self, limewire_campaign):
        unattempted = [record for record in limewire_campaign.store
                       if not record.download_attempted]
        assert unattempted == []

    def test_responses_within_campaign_window(self, limewire_campaign):
        horizon = limewire_campaign.config.duration_days * 86400
        for record in limewire_campaign.store:
            assert 0.0 <= record.time <= horizon

    def test_scanner_only_fires_on_downloaded(self, limewire_campaign):
        for record in limewire_campaign.store:
            if record.malware_name is not None:
                assert record.downloaded

    def test_malicious_ground_truth_consistency(self, limewire_campaign):
        """Every response scanned malicious must come from a host that
        ground truth says is infected."""
        world = limewire_campaign.world
        network = world.network
        for record in limewire_campaign.store.malicious_responses():
            servent = network.servent_by_guid(
                bytes.fromhex(record.responder_key))
            assert servent is not None
            assert world.ground_truth.get(servent.endpoint_id)

    def test_no_clean_content_scans_dirty(self, limewire_campaign):
        """Responses from never-infected hosts never scan malicious."""
        world = limewire_campaign.world
        network = world.network
        for record in limewire_campaign.store:
            servent = network.servent_by_guid(
                bytes.fromhex(record.responder_key))
            if servent is None:
                continue
            if not world.ground_truth.get(servent.endpoint_id):
                assert record.malware_name is None


class TestOpenFTCampaign:
    def test_responses_collected(self, openft_campaign):
        assert len(openft_campaign.store) > 300

    def test_store_network_label(self, openft_campaign):
        assert openft_campaign.store.network == "openft"
        assert all(record.network == "openft"
                   for record in openft_campaign.store)

    def test_malicious_ground_truth_consistency(self, openft_campaign):
        world = openft_campaign.world
        network = world.network
        for record in openft_campaign.store.malicious_responses():
            node = network.node_by_host(record.responder_host)
            assert node is not None
            assert world.ground_truth.get(node.endpoint_id)

    def test_dedup_keys_hold_the_stores_strings(self, openft_campaign):
        # the collector's dedup set keeps no string the store does not
        # already hold: its tuples reuse the records' shared copies
        crawler = openft_campaign.world.network.nodes["crawler"]
        collector = crawler.on_search_result.__self__
        shared = openft_campaign.store._strings
        assert len(collector._seen) == len(openft_campaign.store)
        for _, host, md5, filename in collector._seen:
            for value in (host, md5, filename):
                assert value is shared[value]
