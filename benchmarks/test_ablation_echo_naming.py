"""Ablation: disable query-echo worms and watch prevalence collapse.

DESIGN.md calls out query-echo naming as the mechanism behind Limewire's
68%: worms answering *every* query dominate the archive/executable
response mix.  Removing the echo strains (keeping everything else equal)
must collapse prevalence towards OpenFT-like levels.
"""

from dataclasses import replace

from repro.core.analysis.prevalence import compute_prevalence
from repro.core.measure import CampaignConfig, run_limewire_campaign
from repro.peers.profiles import GnutellaProfile, StrainSeeding

from .conftest import STUDY_SEED


def _echo_free_profile() -> GnutellaProfile:
    profile = GnutellaProfile()
    seeding = dict(profile.seeding)
    for strain_id in ("lw-echo-a", "lw-echo-b"):
        seeding[strain_id] = StrainSeeding(initial_hosts=0, final_hosts=0)
    return replace(profile, seeding=seeding)


def test_ablation_echo_naming(benchmark, limewire):
    config = CampaignConfig(seed=STUDY_SEED, duration_days=0.5)

    def run_ablated():
        return run_limewire_campaign(config, profile=_echo_free_profile())

    ablated = benchmark.pedantic(run_ablated, rounds=1, iterations=1)
    baseline_fraction = compute_prevalence(limewire.store).fraction
    ablated_fraction = compute_prevalence(ablated.store).fraction
    print(f"\nprevalence with echo worms:    {baseline_fraction:.1%}")
    print(f"prevalence without echo worms: {ablated_fraction:.1%}")
    assert ablated_fraction < baseline_fraction / 3
    assert ablated_fraction < 0.25
