"""Ablation: flooding reach (ultrapeer degree) vs measured prevalence.

The malicious share is a property of *who answers*, not of how far
queries flood: echo worms and clean sharers are reached by the same
flooding, so prevalence should be roughly flat across mesh degrees, while
the absolute response volume grows with reach.
"""

from dataclasses import replace

from repro.core.analysis.prevalence import compute_prevalence
from repro.core.measure import CampaignConfig, run_limewire_campaign
from repro.peers.profiles import GnutellaProfile

from .conftest import STUDY_SEED


def _run_with_degree(degree: int):
    profile = replace(GnutellaProfile().scaled(0.5),
                      ultrapeer_degree=degree)
    config = CampaignConfig(seed=STUDY_SEED, duration_days=0.5)
    return run_limewire_campaign(config, profile=profile)


def test_ablation_topology(benchmark):
    def sweep():
        return {degree: _run_with_degree(degree) for degree in (3, 8)}

    results = benchmark.pedantic(sweep, rounds=1, iterations=1)
    print()
    print("degree  responses  prevalence")
    fractions = {}
    for degree, result in results.items():
        report = compute_prevalence(result.store)
        fractions[degree] = report.fraction
        print(f"{degree:6d}  {len(result.store):9d}  {report.fraction:.1%}")
    assert abs(fractions[3] - fractions[8]) < 0.15  # shape is flat
