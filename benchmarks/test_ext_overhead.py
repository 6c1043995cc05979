"""Extension: traffic composition of the measured overlay.

Captures a window of overlay traffic during a mini-campaign and reports
the byte share of each descriptor kind.
"""

from repro.core.analysis.overhead import (classify_gnutella_frame,
                                          overhead_report)
from repro.core.measure import CampaignConfig, run_limewire_campaign
from repro.malware.corpus import limewire_strains
from repro.peers.population import build_gnutella_world
from repro.peers.profiles import GnutellaProfile
from repro.simnet.clock import days
from repro.simnet.kernel import Simulator
from repro.simnet.trace import TransportTrace

from .conftest import STUDY_SEED


def test_ext_overhead(benchmark):
    def capture():
        sim = Simulator(seed=STUDY_SEED)
        world = build_gnutella_world(sim, GnutellaProfile().scaled(0.5),
                                     limewire_strains(),
                                     horizon_s=days(0.1))
        crawler = world.network.bootstrap_crawler("crawler", _address(sim))
        trace = TransportTrace(world.transport, classify_gnutella_frame)
        with trace:
            sim.every(300.0, lambda: crawler.originate_query("free music"),
                      label="query", until=days(0.1))
            sim.run_until(days(0.1))
        return trace

    trace = benchmark.pedantic(capture, rounds=1, iterations=1)
    rows = overhead_report(trace)
    print()
    print("kind        messages      bytes  byte-share")
    for row in rows:
        print(f"{row.kind:<10s}  {row.messages:8d}  {row.bytes:9d}"
              f"  {row.byte_share:9.1%}")
    kinds = {row.kind for row in rows}
    assert {"query", "query-hit"} <= kinds


def _address(sim):
    from repro.simnet.addresses import AddressAllocator
    return AddressAllocator(sim.stream("bench:addr")).allocate_public()
