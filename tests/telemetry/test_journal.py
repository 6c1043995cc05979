"""Tests for the JSONL run journal."""

import json
import math

import pytest

from repro.simnet.kernel import Simulator
from repro.telemetry.journal import RunJournal
from repro.telemetry.kernel import KernelTelemetry
from repro.telemetry.registry import MetricRegistry


def read_rows(path):
    return [json.loads(line) for line in path.read_text().splitlines()]


class TestCadence:
    def test_one_line_per_interval(self, tmp_path):
        sim = Simulator(seed=1)
        journal = RunJournal(tmp_path / "run.jsonl", interval_s=10.0)
        journal.install(sim, until=100.0)
        sim.at(95.0, lambda: None)
        sim.run_all()
        journal.close(sim)
        rows = read_rows(journal.path)
        # snapshots at t=10..100 inclusive, plus the final row
        assert [row["virtual_time"] for row in rows[:-1]] == [
            pytest.approx(10.0 * n) for n in range(1, 11)]
        assert rows[-1]["final"] is True
        assert journal.snapshots_written == len(rows)

    def test_until_bounds_the_schedule(self, tmp_path):
        sim = Simulator(seed=1)
        journal = RunJournal(tmp_path / "run.jsonl", interval_s=10.0)
        journal.install(sim, until=30.0)
        sim.at(500.0, lambda: None)
        sim.run_until(500.0)
        journal.close(sim)
        rows = read_rows(journal.path)
        assert rows[-2]["virtual_time"] == pytest.approx(30.0)
        assert rows[-1]["virtual_time"] == pytest.approx(500.0)

    @pytest.mark.parametrize("interval_s", [0.0, -1, math.nan, math.inf])
    def test_interval_must_be_positive(self, tmp_path, interval_s):
        # nan slips past a plain <= 0 check; inf overflows the scheduler
        with pytest.raises(ValueError):
            RunJournal(tmp_path / "run.jsonl", interval_s=interval_s)


class TestAutoInterval:
    def test_default_derives_from_horizon(self, tmp_path):
        # horizon/100: a 1000s run journals every 10s (~100 lines)
        journal = RunJournal(tmp_path / "run.jsonl")
        assert journal.interval_s is None
        assert journal.resolve_interval(1000.0) == pytest.approx(10.0)

    def test_clamped_to_one_second_floor(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        assert journal.resolve_interval(5.0) == pytest.approx(1.0)

    def test_clamped_to_hourly_ceiling(self, tmp_path):
        # a 35-virtual-day run must not journal more often than hourly
        journal = RunJournal(tmp_path / "run.jsonl")
        assert journal.resolve_interval(35 * 86400.0) == pytest.approx(
            3600.0)

    def test_no_horizon_falls_back_to_hourly(self, tmp_path):
        journal = RunJournal(tmp_path / "run.jsonl")
        assert journal.resolve_interval(None) == pytest.approx(3600.0)
        assert journal.resolve_interval(-1.0) == pytest.approx(3600.0)

    def test_explicit_interval_wins(self, tmp_path):
        # the old fixed-hourly behaviour stays available by opting in
        journal = RunJournal(tmp_path / "run.jsonl", interval_s=3600.0)
        assert journal.resolve_interval(1000.0) == pytest.approx(3600.0)

    def test_install_resolves_and_pins_the_cadence(self, tmp_path):
        sim = Simulator(seed=1)
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.install(sim, until=1000.0)
        assert journal.interval_s == pytest.approx(10.0)
        sim.run_all()
        journal.close(sim)
        rows = read_rows(journal.path)
        assert rows[0]["virtual_time"] == pytest.approx(10.0)
        assert len(rows) == 101  # 100 ticks + the final row

    def test_install_horizon_is_relative_to_now(self, tmp_path):
        sim = Simulator(seed=1)
        sim.at(500.0, lambda: None)
        sim.run_until(500.0)
        journal = RunJournal(tmp_path / "run.jsonl")
        journal.install(sim, until=1500.0)  # horizon: 1000s from now
        assert journal.interval_s == pytest.approx(10.0)


class TestRowContents:
    def test_core_fields(self, tmp_path):
        sim = Simulator(seed=1)
        journal = RunJournal(tmp_path / "run.jsonl", interval_s=10.0)
        journal.install(sim, until=10.0)
        for offset in range(5):
            sim.at(1.0 + offset, lambda: None)
        sim.run_until(10.0)
        journal.close(sim)
        rows = read_rows(journal.path)
        first = rows[0]
        assert first["virtual_time"] == pytest.approx(10.0)
        assert first["queue_depth"] == 0
        # without kernel telemetry, sim.events_processed only
        # accumulates when run_until returns, so the mid-run row lags
        assert first["events_processed"] == 0
        assert first["wall_time_s"] >= 0.0
        assert first["events_per_sec"] >= 0.0
        # the final row, written after run_until returned, is accurate:
        # 5 user events + the journal tick itself
        assert rows[-1]["events_processed"] == 6

    def test_prefers_live_kernel_telemetry_counts(self, tmp_path):
        # mid-run, sim.events_processed lags; the telemetry dict does not
        registry = MetricRegistry()
        sim = Simulator(seed=1, telemetry=KernelTelemetry(registry))
        journal = RunJournal(tmp_path / "run.jsonl", interval_s=10.0)
        journal.install(sim, until=10.0)
        for offset in range(5):
            sim.at(1.0 + offset, lambda: None)
        sim.run_until(10.0)
        first = read_rows(journal.path)[0]
        # 5 user events plus the journal event itself, all seen live
        assert first["events_processed"] == 6

    def test_probes_and_probe_errors(self, tmp_path):
        sim = Simulator(seed=1)
        journal = RunJournal(
            tmp_path / "run.jsonl", interval_s=10.0,
            probes={"responses": lambda: 42,
                    "broken": lambda: 1 / 0})
        journal.install(sim, until=10.0)
        sim.run_all()
        journal.close(sim)
        rows = read_rows(journal.path)
        assert all(row["responses"] == 42 for row in rows)
        assert all(row["broken"] is None for row in rows)
        assert journal.probe_errors == len(rows)

    def test_registry_counter_tracks_snapshots(self, tmp_path):
        registry = MetricRegistry()
        sim = Simulator(seed=1)
        journal = RunJournal(tmp_path / "run.jsonl", interval_s=10.0,
                             registry=registry)
        journal.install(sim, until=30.0)
        sim.run_all()
        journal.close(sim)
        assert (registry.get("journal_snapshots_total").value
                == journal.snapshots_written)


class TestTailability:
    def test_lines_visible_before_close(self, tmp_path):
        # flush-per-write is what makes `tail -f` show live progress
        sim = Simulator(seed=1)
        journal = RunJournal(tmp_path / "run.jsonl", interval_s=10.0)
        journal.install(sim, until=50.0)
        seen = []
        sim.at(45.0, lambda: seen.append(
            len(journal.path.read_text().splitlines())))
        sim.run_all()
        assert seen == [4]  # t=10..40 already on disk at t=45
        journal.close(sim)

    def test_close_without_sim_writes_no_final_row(self, tmp_path):
        sim = Simulator(seed=1)
        journal = RunJournal(tmp_path / "run.jsonl", interval_s=10.0)
        journal.install(sim, until=10.0)
        sim.run_all()
        journal.close()
        rows = read_rows(journal.path)
        assert len(rows) == 1 and "final" not in rows[0]
