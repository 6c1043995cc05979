"""Benchmark fixtures.

Each benchmark regenerates one table/figure of the paper (printed to
stdout, captured in bench logs) and times the analysis that produces it.
The two campaigns are run once per session; campaign-level benchmarks use
``benchmark.pedantic`` with a single round to avoid re-simulating.

Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

import pytest

from repro.core.measure import (CampaignConfig, run_limewire_campaign,
                                run_openft_campaign)

STUDY_SEED = 2
STUDY_DAYS = 1.0


@pytest.fixture(scope="session")
def bench_config() -> CampaignConfig:
    """Campaign configuration used by all analysis benchmarks."""
    return CampaignConfig(seed=STUDY_SEED, duration_days=STUDY_DAYS)


@pytest.fixture(scope="session")
def limewire(bench_config):
    """The Limewire campaign analysed by the benchmarks."""
    return run_limewire_campaign(bench_config)


@pytest.fixture(scope="session")
def openft(bench_config):
    """The OpenFT campaign analysed by the benchmarks."""
    return run_openft_campaign(bench_config)
