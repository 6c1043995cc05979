"""Infrastructure: end-to-end campaign throughput.

Times a small full campaign (world build + flooding + downloads + scans)
so regressions in any layer surface as wall-clock changes here, and
reports scan-engine throughput (scans/sec and verdict-cache hit rate --
the numbers the campaign fast path optimises).
"""

import time

from repro.core.measure import CampaignConfig, run_limewire_campaign
from repro.peers.profiles import GnutellaProfile

from .conftest import STUDY_SEED


def test_campaign_throughput(benchmark):
    config = CampaignConfig(seed=STUDY_SEED, duration_days=0.25)
    profile = GnutellaProfile().scaled(0.5)
    timing = {}

    def run():
        start = time.perf_counter()
        result = run_limewire_campaign(config, profile=profile)
        timing["elapsed"] = time.perf_counter() - start
        return result

    result = benchmark.pedantic(run, rounds=2, iterations=1)
    events = result.sim.events_processed
    engine = result.engine
    scans_per_sec = engine.scan_requests / timing["elapsed"]
    print(f"\n{events} events, {len(result.store)} responses, "
          f"{engine.scan_requests} scan requests / "
          f"{engine.scans_performed} full scans "
          f"({scans_per_sec:,.0f} scans/sec over the campaign, "
          f"cache hit rate {engine.cache_hit_rate:.1%})")
    assert len(result.store) > 100
    assert engine.scan_requests > 0
