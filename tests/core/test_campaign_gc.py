"""The campaign runners' garbage-collector region.

A runner collects before its world build, freezes the built world and
raises the generation-0 threshold for the run, then hands the caller's
collector state back -- also when the campaign raises -- and never lets
a finished world outlive the next build.
"""

import gc
import weakref

import pytest

from repro.core.measure import campaign
from repro.core.measure.campaign import (RUN_GC_THRESHOLD0, RUN_MEMOS,
                                         CampaignConfig, default_profile)

#: a tiny campaign: a tenth of the population for a few virtual minutes
CONFIG = CampaignConfig(seed=3, duration_days=0.01)
RUNNERS = {
    "limewire": ("run_limewire_campaign", "build_gnutella_world"),
    "openft": ("run_openft_campaign", "build_openft_world"),
}
#: not CPython's default, so a restore to the default would show
CALLER_THRESHOLD = (1234, 17, 23)


def _run(network: str):
    runner = getattr(campaign, RUNNERS[network][0])
    return runner(CONFIG, profile=default_profile(network, 0.1))


@pytest.fixture()
def caller_threshold():
    saved = gc.get_threshold()
    gc.set_threshold(*CALLER_THRESHOLD)
    try:
        yield CALLER_THRESHOLD
    finally:
        gc.set_threshold(*saved)


@pytest.mark.parametrize("network", sorted(RUNNERS))
def test_state_restored_after_a_campaign(network, caller_threshold):
    assert gc.get_freeze_count() == 0
    _run(network)
    assert gc.get_freeze_count() == 0
    assert gc.get_threshold() == caller_threshold


@pytest.mark.parametrize("network", sorted(RUNNERS))
def test_run_memos_are_emptied_after_a_campaign(network, monkeypatch):
    seen = {}
    run = campaign._run

    def spying_run(*args, **kwargs):
        run(*args, **kwargs)
        seen.update((memo.__qualname__, memo.cache_info().currsize)
                    for memo in RUN_MEMOS)

    monkeypatch.setattr(campaign, "_run", spying_run)
    _run(network)
    # the run filled the memos of its network; none outlives the world
    assert seen["tokenize"] > 0
    assert all(memo.cache_info().currsize == 0 for memo in RUN_MEMOS)


@pytest.mark.parametrize("network", sorted(RUNNERS))
def test_state_restored_when_the_run_raises(network, caller_threshold,
                                            monkeypatch):
    seen = {}

    def failing_run(*args, **kwargs):
        seen["frozen"] = gc.get_freeze_count()
        seen["threshold"] = gc.get_threshold()
        raise RuntimeError("campaign failed mid-run")

    monkeypatch.setattr(campaign, "_run", failing_run)
    with pytest.raises(RuntimeError, match="mid-run"):
        _run(network)
    # the run itself saw the frozen world and the raised threshold
    assert seen["frozen"] > 0
    assert seen["threshold"] == (RUN_GC_THRESHOLD0,
                                 *caller_threshold[1:])
    assert gc.get_freeze_count() == 0
    assert gc.get_threshold() == caller_threshold
    assert all(memo.cache_info().currsize == 0 for memo in RUN_MEMOS)


@pytest.mark.parametrize("network", sorted(RUNNERS))
def test_previous_world_is_gone_before_the_next_build(network, monkeypatch):
    """Two campaigns in one process (a sweep, ``run --network both``):
    the first world's cycles are collected before the second is built,
    so the two never share the heap."""
    first = _run(network)
    first_sim = weakref.ref(first.sim)
    del first
    build_name = RUNNERS[network][1]
    build = getattr(campaign, build_name)
    alive_at_build = []

    def build_and_check(*args, **kwargs):
        alive_at_build.append(first_sim() is not None)
        return build(*args, **kwargs)

    monkeypatch.setattr(campaign, build_name, build_and_check)
    _run(network)
    assert alive_at_build == [False]
