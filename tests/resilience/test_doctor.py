"""Tests for the artifact doctor (classification, reporting, repair)."""

import json

from repro.resilience import DurableAppender, frame_line, run_doctor
from repro.simnet.kernel import Simulator
from repro.telemetry import RunJournal
from repro.telemetry.httpd import tail_journal


def make_checkpoint(path, seeds=(1, 2)):
    with DurableAppender(path) as appender:
        appender.append({"kind": "header", "fingerprint": "f" * 64})
        for seed in seeds:
            appender.append({"kind": "seed", "seed": seed,
                             "metrics": {"prevalence": 0.5},
                             "snapshot": None})
    return path


def make_run_journal(path, rows=6):
    """A run journal as a campaign writes it: bare rows, one per tick."""
    sim = Simulator(seed=1)
    journal = RunJournal(path, interval_s=10.0)
    journal.install(sim, until=10.0 * rows)
    sim.run_all()
    journal.close(sim)
    return path


class TestClassification:
    def test_checkpoint_detected_by_header(self, tmp_path):
        make_checkpoint(tmp_path / "cp.jsonl")
        report = run_doctor([tmp_path / "cp.jsonl"])
        artifact, = report.artifacts
        assert artifact.kind == "checkpoint"
        assert artifact.seeds == [1, 2]
        assert artifact.fingerprint == "f" * 64
        assert report.ok

    def test_plain_journal_is_not_a_checkpoint(self, tmp_path):
        path = tmp_path / "run_journal.jsonl"
        path.write_text(json.dumps({"virtual_time": 1.0}) + "\n")
        report = run_doctor([path])
        assert report.artifacts[0].kind == "journal"

    def test_json_artifact_parse_checked(self, tmp_path):
        good = tmp_path / "report.json"
        good.write_text('{"results": {}}')
        bad = tmp_path / "trace.json"
        bad.write_text('{"traceEvents": [')
        report = run_doctor([good, bad])
        assert report.artifacts[0].healthy
        assert not report.artifacts[1].healthy

    def test_missing_path_reported(self, tmp_path):
        report = run_doctor([tmp_path / "ghost.jsonl"])
        assert report.artifacts[0].kind == "missing"
        assert not report.ok

    def test_directory_walk_finds_artifacts(self, tmp_path):
        make_checkpoint(tmp_path / "cp.jsonl")
        (tmp_path / "trace.json").write_text("{}")
        (tmp_path / "noise.txt").write_text("ignored")
        report = run_doctor([tmp_path])
        kinds = sorted(artifact.kind for artifact in report.artifacts)
        assert kinds == ["checkpoint", "json"]


class TestRepair:
    def test_torn_checkpoint_repaired_and_seeds_survive(self, tmp_path):
        path = make_checkpoint(tmp_path / "cp.jsonl", seeds=(1, 2, 3))
        data = path.read_bytes()
        path.write_bytes(data[:-9])  # tear into the seed-3 record
        detect = run_doctor([path])
        assert not detect.ok
        assert detect.artifacts[0].seeds == [1, 2]
        repair = run_doctor([path], repair=True)
        assert repair.artifacts[0].repaired
        healthy = run_doctor([path])
        assert healthy.ok and healthy.artifacts[0].seeds == [1, 2]

    def test_stale_tmp_deleted_only_on_repair(self, tmp_path):
        stale = tmp_path / "out.json.tmp.999"
        stale.write_text("half-written")
        run_doctor([tmp_path])
        assert stale.exists()
        run_doctor([tmp_path], repair=True)
        assert not stale.exists()

    def test_corrupt_record_quarantined_on_repair(self, tmp_path):
        path = tmp_path / "cp.jsonl"
        path.write_text(
            frame_line({"kind": "header", "fingerprint": "x"}) + "\n"
            + "corrupted-line\n"
            + frame_line({"kind": "seed", "seed": 9, "metrics": {},
                          "snapshot": None}) + "\n")
        report = run_doctor([path], repair=True)
        assert report.artifacts[0].corrupt_records == 1
        assert (tmp_path / "cp.jsonl.quarantine").exists()
        assert run_doctor([path]).ok

    def test_repaired_run_journal_keeps_its_rows(self, tmp_path):
        path = make_run_journal(tmp_path / "limewire_journal.jsonl")
        lines = path.read_bytes().split(b"\n")
        survivors = lines[:2] + lines[3:]
        lines[2] = lines[2][:len(lines[2]) // 2]  # cut an interior row
        path.write_bytes(b"\n".join(lines))
        report = run_doctor([path], repair=True)
        assert report.artifacts[0].corrupt_records == 1
        # the surviving rows come back byte for byte, still bare, so
        # the dashboard's tailer reads their fields at the top level
        assert path.read_bytes() == b"\n".join(survivors)
        rows = tail_journal(path)
        assert len(rows) == len(survivors) - 1
        assert all("events_per_sec" in row for row in rows)
        assert run_doctor([path]).ok

    def test_unrepairable_json_still_flagged_after_repair(self, tmp_path):
        bad = tmp_path / "torn.json"
        bad.write_text('{"half":')
        report = run_doctor([bad], repair=True)
        assert not report.ok
        assert "regenerate" in report.artifacts[0].note


class TestRender:
    def test_render_mentions_recoverable_seeds(self, tmp_path):
        make_checkpoint(tmp_path / "cp.jsonl", seeds=(4,))
        text = run_doctor([tmp_path / "cp.jsonl"]).render()
        assert "resume recovers 1 completed seed" in text
        assert "all artifacts healthy" in text

    def test_render_counts_partial_repairs(self, tmp_path):
        (tmp_path / "torn.json").write_text("{bad")
        stale = tmp_path / "x.json.tmp.1"
        stale.write_text("t")
        text = run_doctor([tmp_path], repair=True).render()
        assert "1/2 damaged artifacts repaired" in text
        assert "regenerated" in text
