"""Tests for the multi-seed experiment runner."""

import json

import pytest

from repro.core.experiments import (HEADLINE_METRICS, CheckpointJournal,
                                    MetricSummary, run_replications)
from repro.core.measure.campaign import CampaignConfig
from repro.faults import FaultPlan, WorkerCrash, WorkerHang, WorkerStall
from repro.peers.profiles import GnutellaProfile
from repro.resilience import (SupervisionPolicy, frame_line, parse_frame,
                              scan_frames)

#: tiny-but-real campaign shape shared by the self-healing tests
TINY = dict(duration_days=0.05)
TINY_PROFILE = GnutellaProfile().scaled(0.3)


def tiny_config(**kwargs):
    return CampaignConfig(seed=0, **TINY, **kwargs)


def crash_plan(seeds, attempts=1):
    return FaultPlan(worker_crash=WorkerCrash(seeds=tuple(seeds),
                                              attempts=attempts))


class TestMetricSummary:
    def test_aggregates(self):
        summary = MetricSummary(name="x", values=(0.6, 0.7, 0.8))
        assert summary.mean == pytest.approx(0.7)
        assert summary.low == 0.6
        assert summary.high == 0.8
        assert summary.within(0.5, 0.9)
        assert not summary.within(0.65, 0.9)

    def test_empty(self):
        summary = MetricSummary(name="x", values=())
        assert summary.mean == 0.0


class TestRunReplications:
    @pytest.fixture(scope="class")
    def report(self):
        # two tiny replications of a scaled-down world
        return run_replications(
            "limewire", seeds=(3, 4),
            config=CampaignConfig(seed=0, duration_days=0.25),
            profile=GnutellaProfile().scaled(0.5))

    def test_all_metrics_present(self, report):
        assert set(report.metrics) == set(HEADLINE_METRICS["limewire"])
        for summary in report.metrics.values():
            assert len(summary.values) == 2

    def test_prevalence_band_across_seeds(self, report):
        assert report.metrics["prevalence"].within(0.45, 0.90)

    def test_render(self, report):
        text = report.render()
        assert "limewire" in text
        assert "prevalence" in text
        assert "%" in text

    def test_unknown_network_rejected(self):
        with pytest.raises(ValueError):
            run_replications("kazaa", seeds=(1,),
                             config=CampaignConfig())


class TestSelfHealing:
    @pytest.fixture(scope="class")
    def baseline(self):
        return run_replications("limewire", seeds=(1, 2),
                                config=tiny_config(),
                                profile=TINY_PROFILE)

    def test_crashed_worker_heals_on_retry(self, baseline):
        report = run_replications(
            "limewire", seeds=(1, 2),
            config=tiny_config(fault_plan=crash_plan([2])),
            profile=TINY_PROFILE)
        assert not report.degraded
        assert report.failures == ()
        assert report.completed_seeds == (1, 2)
        # the retry reruns the same pure function: metrics identical
        for name, summary in baseline.metrics.items():
            assert report.metrics[name].values == summary.values

    def test_crashing_the_retry_quarantines_the_seed(self, baseline):
        report = run_replications(
            "limewire", seeds=(1, 2),
            config=tiny_config(fault_plan=crash_plan([2], attempts=2)),
            profile=TINY_PROFILE)
        assert report.degraded
        assert report.completed_seeds == (1,)
        assert len(report.failures) == 1
        failure = report.failures[0]
        assert failure.seed == 2
        assert failure.attempts == 2
        assert "injected worker crash" in failure.error
        # surviving seed's metrics are untouched by the quarantine
        for name, summary in baseline.metrics.items():
            assert report.metrics[name].values == (summary.values[0],)

    def test_degraded_report_renders_the_quarantine(self):
        report = run_replications(
            "limewire", seeds=(1, 2),
            config=tiny_config(fault_plan=crash_plan([2], attempts=2)),
            profile=TINY_PROFILE)
        text = report.render()
        assert "DEGRADED" in text
        assert "[2]" in text

    def test_every_seed_dying_raises(self):
        with pytest.raises(RuntimeError, match="every replication seed"):
            run_replications(
                "limewire", seeds=(1,),
                config=tiny_config(fault_plan=crash_plan([1], attempts=2)),
                profile=TINY_PROFILE)


class TestCheckpoint:
    def test_resume_completes_interrupted_run(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        uninterrupted = run_replications("limewire", seeds=(1, 2),
                                         config=tiny_config(),
                                         profile=TINY_PROFILE)
        # "interrupt": seed 2's worker dies twice, so only seed 1 lands
        degraded = run_replications(
            "limewire", seeds=(1, 2),
            config=tiny_config(fault_plan=crash_plan([2], attempts=2)),
            profile=TINY_PROFILE, checkpoint=journal)
        assert degraded.completed_seeds == (1,)
        # resume without the chaos: seed 1 read from the journal, seed 2
        # computed fresh -- the merged report matches an uninterrupted run
        resumed = run_replications("limewire", seeds=(1, 2),
                                   config=tiny_config(),
                                   profile=TINY_PROFILE,
                                   checkpoint=journal)
        assert not resumed.degraded
        assert resumed.completed_seeds == (1, 2)
        for name, summary in uninterrupted.metrics.items():
            assert resumed.metrics[name].values == summary.values

    def test_completed_seeds_are_not_recomputed(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_replications("limewire", seeds=(1,), config=tiny_config(),
                         profile=TINY_PROFILE, checkpoint=journal)
        entries = [parse_frame(line) for line in
                   journal.read_text().splitlines()]
        assert entries[0]["kind"] == "header"
        assert [e["seed"] for e in entries[1:]] == [1]
        # poison the recorded metrics: if the resume recomputed seed 1
        # the report would disagree with the journal
        entries[1]["metrics"] = {name: 0.123 for name
                                 in entries[1]["metrics"]}
        journal.write_text("\n".join(frame_line(e) for e in entries) + "\n")
        report = run_replications("limewire", seeds=(1,),
                                  config=tiny_config(),
                                  profile=TINY_PROFILE, checkpoint=journal)
        assert all(summary.values == (0.123,)
                   for summary in report.metrics.values())

    def test_config_change_invalidates_checkpoint(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_replications("limewire", seeds=(1,), config=tiny_config(),
                         profile=TINY_PROFILE, checkpoint=journal)
        with pytest.raises(ValueError, match="different experiment"):
            run_replications(
                "limewire", seeds=(1,),
                config=CampaignConfig(seed=0, duration_days=0.1),
                profile=TINY_PROFILE, checkpoint=journal)

    def test_non_checkpoint_file_rejected(self, tmp_path):
        bogus = tmp_path / "bogus.jsonl"
        bogus.write_text('{"kind": "something-else"}\n')
        with pytest.raises(ValueError, match="not a replication"):
            run_replications("limewire", seeds=(1,), config=tiny_config(),
                             profile=TINY_PROFILE, checkpoint=bogus)

    def test_fingerprint_mismatch_error_is_actionable(self, tmp_path):
        journal = tmp_path / "journal.jsonl"
        run_replications("limewire", seeds=(1,), config=tiny_config(),
                         profile=TINY_PROFILE, checkpoint=journal)
        with pytest.raises(ValueError) as excinfo:
            run_replications(
                "limewire", seeds=(1,),
                config=CampaignConfig(seed=0, duration_days=0.1),
                profile=TINY_PROFILE, checkpoint=journal)
        message = str(excinfo.value)
        # the hint must offer both ways out, plus the inspection tool
        assert "--checkpoint" in message
        assert "delete the file" in message
        assert "doctor" in message


class TestCheckpointCrashSafety:
    """The journal itself, without campaign runs: fast byte-level tests."""

    FINGERPRINT = "a" * 64

    def fill(self, path, seeds=(1, 2, 3)):
        journal = CheckpointJournal(path, self.FINGERPRINT)
        for seed in seeds:
            journal.record(seed, {"prevalence": 0.5 + seed / 10.0}, None)
        journal.close()
        return path.read_bytes()

    def test_truncation_at_every_byte_offset_recovers(self, tmp_path):
        """SIGKILL at any byte offset of a checkpoint append: every
        fully committed seed survives, no offset raises."""
        path = tmp_path / "cp.jsonl"
        data = self.fill(path)
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            journal = CheckpointJournal(path, self.FINGERPRINT)
            journal.close()
            recovered = sorted(journal.completed)
            assert recovered == [1, 2, 3][:len(recovered)]
            # committed = lines wholly on disk; the torn record (if
            # any) is the only loss
            committed = data[:cut].count(b"\n") - 1  # minus the header
            assert len(recovered) >= max(0, committed)

    def test_append_after_torn_tail_lands_clean(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        data = self.fill(path, seeds=(1, 2))
        path.write_bytes(data[:-9])  # tear into seed 2's record
        journal = CheckpointJournal(path, self.FINGERPRINT)
        assert sorted(journal.completed) == [1]
        journal.record(5, {"prevalence": 0.9}, None)
        journal.close()
        scan = scan_frames(path)
        assert scan.healthy
        reloaded = CheckpointJournal(path, self.FINGERPRINT)
        assert sorted(reloaded.completed) == [1, 5]
        reloaded.close()

    def test_io_chaos_degrades_journaling_not_the_run(self, tmp_path):
        from repro.faults import DiskFull, HostIOFaults

        path = tmp_path / "cp.jsonl"
        plan = FaultPlan(io_clauses=(DiskFull(at_ops=(2,)),))
        journal = CheckpointJournal(path, self.FINGERPRINT,
                                    io=HostIOFaults(plan, seed=1))
        for seed in (1, 2, 3):
            journal.record(seed, {"prevalence": 0.5}, None)
        journal.close()
        # op 2 = seed 2's append failed; the run kept going and the
        # file stayed parseable
        assert journal.write_errors == 1
        assert sorted(journal.completed) == [1, 2, 3]
        reloaded = CheckpointJournal(path, self.FINGERPRINT)
        assert 1 in reloaded.completed and 3 in reloaded.completed
        assert 2 not in reloaded.completed  # its append was the casualty
        reloaded.close()


class TestSupervisedReplication:
    POLICY = SupervisionPolicy(deadline_s=120.0, stall_timeout_s=2.0)

    @pytest.fixture(scope="class")
    def baseline(self):
        return run_replications("limewire", seeds=(1, 2),
                                config=tiny_config(),
                                profile=TINY_PROFILE)

    def test_supervised_run_is_bit_identical(self, baseline):
        report = run_replications("limewire", seeds=(1, 2),
                                  config=tiny_config(),
                                  profile=TINY_PROFILE, workers=2,
                                  supervision=self.POLICY)
        assert not report.degraded
        for name, summary in baseline.metrics.items():
            assert report.metrics[name].values == summary.values

    def test_hung_worker_is_quarantined_not_waited_for(self, baseline):
        kills = []
        plan = FaultPlan(worker_hang=WorkerHang(seeds=(2,), attempts=2,
                                                hang_s=120.0))
        report = run_replications("limewire", seeds=(1, 2),
                                  config=tiny_config(fault_plan=plan),
                                  profile=TINY_PROFILE, workers=2,
                                  supervision=self.POLICY,
                                  on_kill=kills.append)
        assert report.degraded
        assert report.completed_seeds == (1,)
        assert report.failures[0].seed == 2
        assert "supervision:" in report.failures[0].error
        # 2 kills per attempt (requeue + give up), 2 attempts
        assert len(kills) == 4
        for name, summary in baseline.metrics.items():
            assert report.metrics[name].values == (summary.values[0],)

    def test_hang_on_first_attempt_only_heals(self, baseline):
        plan = FaultPlan(worker_hang=WorkerHang(seeds=(2,), attempts=1,
                                                hang_s=120.0))
        report = run_replications("limewire", seeds=(1, 2),
                                  config=tiny_config(fault_plan=plan),
                                  profile=TINY_PROFILE, workers=2,
                                  supervision=self.POLICY)
        assert not report.degraded
        for name, summary in baseline.metrics.items():
            assert report.metrics[name].values == summary.values

    def test_short_stall_rides_through(self, baseline):
        kills = []
        plan = FaultPlan(worker_stall=WorkerStall(seeds=(1,), stall_s=0.5))
        report = run_replications("limewire", seeds=(1, 2),
                                  config=tiny_config(fault_plan=plan),
                                  profile=TINY_PROFILE, workers=2,
                                  supervision=self.POLICY,
                                  on_kill=kills.append)
        assert not report.degraded and kills == []
        for name, summary in baseline.metrics.items():
            assert report.metrics[name].values == summary.values

    def test_hang_clause_ignored_without_supervision(self, baseline):
        # one worker runs every seed in-process and unwatched, so it
        # must not enforce hangs (it could never cancel them); the plan
        # is inert there, while two workers quarantine the same hang
        # (test_hung_worker_is_quarantined_not_waited_for)
        plan = FaultPlan(worker_hang=WorkerHang(seeds=(1, 2),
                                                attempts=2, hang_s=120.0))
        report = run_replications("limewire", seeds=(1, 2),
                                  config=tiny_config(fault_plan=plan),
                                  profile=TINY_PROFILE, workers=1,
                                  supervision=self.POLICY)
        assert not report.degraded
        for name, summary in baseline.metrics.items():
            assert report.metrics[name].values == summary.values
