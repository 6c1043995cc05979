"""Tests for the parallel replication fan-out."""

import multiprocessing.process

import pytest

from repro.core.experiments import replicate_one, run_replications
from repro.core.measure.campaign import CampaignConfig
from repro.peers.profiles import GnutellaProfile
from repro.resilience import resolve_workers


class TestResolveWorkers:
    def test_explicit_count_capped_by_tasks(self):
        assert resolve_workers(8, 3) == 3
        assert resolve_workers(2, 10) == 2

    def test_none_means_cpu_count(self):
        assert resolve_workers(None, 1000) >= 1

    def test_floor_of_one(self):
        assert resolve_workers(0, 5) == 1
        assert resolve_workers(-3, 5) == 1


class TestParallelReplications:
    @pytest.fixture(scope="class")
    def setup(self):
        return (CampaignConfig(seed=0, duration_days=0.1),
                GnutellaProfile().scaled(0.4))

    def test_parallel_matches_serial_bit_identical(self, setup):
        config, profile = setup
        seeds = (3, 4)
        serial = run_replications("limewire", seeds, config,
                                  profile=profile, workers=1)
        parallel = run_replications("limewire", seeds, config,
                                    profile=profile, workers=2)
        assert serial.seeds == parallel.seeds
        assert set(serial.metrics) == set(parallel.metrics)
        for name in serial.metrics:
            # bit-identical floats, not approx: same seed, same world
            assert serial.metrics[name].values == \
                parallel.metrics[name].values

    def test_one_worker_starts_no_process(self, setup, monkeypatch):
        # every seed runs in the calling process, where an in-process
        # probe (perfbench's lw-sweep) can see the campaign
        def refuse(process):
            raise AssertionError("a one-worker run started a process")

        monkeypatch.setattr(multiprocessing.process.BaseProcess, "start",
                            refuse)
        config, profile = setup
        report = run_replications("limewire", (3, 4), config,
                                  profile=profile, workers=1)
        assert report.completed_seeds == (3, 4) and not report.degraded

    def test_replicate_one_matches_serial_runner(self, setup):
        config, profile = setup
        serial = run_replications("limewire", (3,), config,
                                  profile=profile, workers=1)
        single = replicate_one("limewire", config, profile, 3)
        for name, summary in serial.metrics.items():
            assert summary.values == (single[name],)

    def test_replicate_one_unknown_network(self, setup):
        config, profile = setup
        with pytest.raises(ValueError):
            replicate_one("kazaa", config, profile, 1)
