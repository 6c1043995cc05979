"""Ablation: dose-response of infected-host count on prevalence.

Scales every strain's seeded host count while holding the clean
population constant: prevalence must rise monotonically with the
infected dose, confirming the measured 68% is a property of the infected
population size rather than an artifact of the pipeline.
"""

from dataclasses import replace

from repro.core.analysis.prevalence import compute_prevalence
from repro.core.measure import CampaignConfig, run_limewire_campaign
from repro.peers.profiles import GnutellaProfile, StrainSeeding

from .conftest import STUDY_SEED


def _with_infection_scale(profile: GnutellaProfile,
                          factor: float) -> GnutellaProfile:
    seeding = {
        strain_id: StrainSeeding(
            initial_hosts=max(0, round(seed.initial_hosts * factor)),
            final_hosts=max(0, round(seed.final_hosts * factor)),
            resident_copies=seed.resident_copies,
            dedicated=seed.dedicated)
        for strain_id, seed in profile.seeding.items()
    }
    return replace(profile, seeding=seeding)


def test_ablation_infection_scale(benchmark):
    base = GnutellaProfile().scaled(0.5)
    config = CampaignConfig(seed=STUDY_SEED, duration_days=0.4)

    def sweep():
        results = {}
        for factor in (0.25, 1.0, 2.0):
            profile = _with_infection_scale(base, factor)
            results[factor] = run_limewire_campaign(config,
                                                    profile=profile)
        return results

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("infection scale  prevalence")
    fractions = {}
    for factor, result in sorted(results.items()):
        fraction = compute_prevalence(result.store).fraction
        fractions[factor] = fraction
        print(f"{factor:15.2f}  {fraction:.1%}")
    assert fractions[0.25] < fractions[1.0] < fractions[2.0]
    assert fractions[0.25] < 0.55
    assert fractions[2.0] > 0.75
