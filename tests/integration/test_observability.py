"""The observability plane is read-only: serving changes nothing.

Replays the same campaign with the HTTP server off and with it on --
while scraper threads hammer the endpoints mid-run -- and demands the
kernel :class:`EventDigest` and the measurement store's sha256 stay
bit-identical.  This is the acceptance gate for the whole plane: the
hub may only ever snapshot, never schedule.
"""

import json
import threading
import urllib.request

import pytest

from repro.core.measure.campaign import (CampaignConfig,
                                         run_limewire_campaign,
                                         run_openft_campaign)
from repro.devtools.digest import EventDigest
from repro.peers.profiles import GnutellaProfile, OpenFTProfile
from repro.telemetry import CampaignTelemetry

RUNNERS = {
    "limewire": (run_limewire_campaign, GnutellaProfile),
    "openft": (run_openft_campaign, OpenFTProfile),
}


def run_campaign(network, tmp_path, *, serve):
    """One full campaign; returns (digest hex, store sha, scrape count)."""
    runner, profile_cls = RUNNERS[network]
    telemetry = CampaignTelemetry.for_directory(
        tmp_path / ("on" if serve else "off"), network)
    digest = EventDigest()
    telemetry.kernel.on_event = digest.on_event
    config = CampaignConfig(seed=13, duration_days=0.05)
    profile = profile_cls().scaled(0.35)

    scrapes = [0]
    if not serve:
        runner(config, profile, telemetry=telemetry)
        return digest.hexdigest(), None, scrapes[0]

    server = telemetry.serve(port=0, name=network)
    stop = threading.Event()

    def scraper():
        while not stop.is_set():
            for route in ("metrics", "healthz", "snapshot.json",
                          "dashboard.json", "journal", "hotspots.json"):
                try:
                    with urllib.request.urlopen(server.url + route,
                                                timeout=10) as response:
                        assert response.status == 200
                        response.read()
                    scrapes[0] += 1
                except (OSError, AssertionError):
                    pass
            stop.wait(0.02)

    threads = [threading.Thread(target=scraper, daemon=True)
               for _ in range(3)]
    try:
        for thread in threads:
            thread.start()
        result = runner(config, profile, telemetry=telemetry)
    finally:
        stop.set()
        for thread in threads:
            thread.join(timeout=10)
        server.stop()
    return (digest.hexdigest(), result.store.content_digest(),
            scrapes[0])


class TestServerEquivalence:
    @pytest.mark.parametrize("network", ["limewire", "openft"])
    def test_digest_and_store_identical_with_server_on(self, network,
                                                       tmp_path):
        off_digest, _store, _scrapes = run_campaign(network, tmp_path,
                                                    serve=False)
        on_digest, on_store, scrapes = run_campaign(network, tmp_path,
                                                    serve=True)
        assert scrapes > 0, "server was never scraped mid-run"
        assert on_digest == off_digest
        assert on_store is not None

    def test_store_sha_matches_a_bare_rerun(self, tmp_path):
        # same seed without any telemetry at all: the store must land
        # on the same content digest the served run produced
        runner, profile_cls = RUNNERS["limewire"]
        _digest, served_store, _scrapes = run_campaign(
            "limewire", tmp_path, serve=True)
        bare = runner(CampaignConfig(seed=13, duration_days=0.05),
                      profile_cls().scaled(0.35))
        assert bare.store.content_digest() == served_store

    def test_trace_file_written_and_loadable(self, tmp_path):
        telemetry = CampaignTelemetry.for_directory(tmp_path, "limewire")
        runner, profile_cls = RUNNERS["limewire"]
        runner(CampaignConfig(seed=13, duration_days=0.02),
               profile_cls().scaled(0.35), telemetry=telemetry)
        written = telemetry.write_outputs(tmp_path, "limewire")
        payload = json.loads(written["trace"].read_text())
        assert payload["traceEvents"]
        assert payload["otherData"]["spans_recorded"] > 0
