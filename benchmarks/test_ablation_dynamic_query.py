"""Ablation: flooding vs LimeWire's dynamic query controller.

Dynamic querying stops probing once enough results flowed back, so the
crawler sees fewer responses per query when the target binds (the real
network's 150-result target never binds in a scaled-down mesh, so the
bench uses a proportionally scaled target) -- but prevalence is a
property of *who answers*, not of probe pacing, so the malicious share
should be essentially unchanged.
"""

from dataclasses import replace

from repro.core.analysis.prevalence import compute_prevalence
from repro.core.measure import CampaignConfig, run_limewire_campaign
from repro.gnutella.servent import GnutellaServent
from repro.peers.profiles import GnutellaProfile

from .conftest import STUDY_SEED

#: scaled controller parameters: the mesh is ~1000x smaller than 2006
#: Gnutella, so the 150-result satisfaction point scales to ~10 and the
#: 2-hop probe radius (which spans the entire scaled mesh) to 1 hop
SCALED_RESULT_TARGET = 10
SCALED_PROBE_TTL = 1


def test_ablation_dynamic_query(benchmark):
    config = CampaignConfig(seed=STUDY_SEED, duration_days=0.5)

    def run_both():
        flooding = run_limewire_campaign(
            config, profile=GnutellaProfile().scaled(0.5))
        original = (GnutellaServent.DQ_RESULT_TARGET,
                    GnutellaServent.DQ_PROBE_TTL)
        GnutellaServent.DQ_RESULT_TARGET = SCALED_RESULT_TARGET
        GnutellaServent.DQ_PROBE_TTL = SCALED_PROBE_TTL
        try:
            dynamic = run_limewire_campaign(
                config, profile=replace(GnutellaProfile().scaled(0.5),
                                        dynamic_queries=True))
        finally:
            (GnutellaServent.DQ_RESULT_TARGET,
             GnutellaServent.DQ_PROBE_TTL) = original
        return flooding, dynamic

    flooding, dynamic = benchmark.pedantic(run_both, rounds=1, iterations=1)
    flooding_prevalence = compute_prevalence(flooding.store).fraction
    dynamic_prevalence = compute_prevalence(dynamic.store).fraction
    print()
    print("mode      responses  prevalence")
    print(f"flooding  {len(flooding.store):9d}  {flooding_prevalence:.1%}")
    print(f"dynamic   {len(dynamic.store):9d}  {dynamic_prevalence:.1%}")
    assert len(dynamic.store) < len(flooding.store)
    assert abs(dynamic_prevalence - flooding_prevalence) < 0.15
