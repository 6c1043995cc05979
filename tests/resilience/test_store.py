"""Tests for the crash-safe artifact store (frames, scans, atomic IO)."""

import json
import os

import pytest

from repro.resilience import (DurableAppender, FrameScan, atomic_write_bytes,
                              atomic_write_text, frame_line, parse_frame,
                              recover_frames, scan_frames)
from repro.resilience.store import FrameError


def write_journal(path, records, framed=True):
    with DurableAppender(path, framed=framed) as appender:
        for record in records:
            appender.append(record)
    return path.read_bytes()


class TestFrames:
    def test_round_trip(self):
        record = {"kind": "seed", "seed": 3, "metrics": {"x": 1.5}}
        assert parse_frame(frame_line(record)) == record

    def test_frame_is_one_json_line(self):
        line = frame_line({"a": [1, 2, 3]})
        assert "\n" not in line
        obj = json.loads(line)
        assert set(obj) == {"crc", "record"}

    def test_crc_detects_payload_flip(self):
        line = frame_line({"seed": 7})
        bad = line.replace('"seed":7', '"seed":8')
        with pytest.raises(FrameError, match="checksum"):
            parse_frame(bad)

    def test_not_json_rejected(self):
        with pytest.raises(FrameError, match="not JSON"):
            parse_frame('{"crc": "dead')

    def test_legacy_bare_record_passes_unverified(self):
        # run-journal rows are bare JSON objects and must stay readable
        bare = json.dumps({"kind": "seed", "seed": 1})
        assert parse_frame(bare) == {"kind": "seed", "seed": 1}

    def test_key_order_does_not_matter(self):
        # the checksum covers the canonical serialization, so a
        # re-serialized frame with reordered keys still verifies
        line = frame_line({"b": 2, "a": 1})
        obj = json.loads(line)
        reordered = json.dumps({"record": obj["record"],
                                "crc": obj["crc"]})
        assert parse_frame(reordered) == {"a": 1, "b": 2}


class TestScan:
    def test_missing_file_is_empty_and_healthy(self, tmp_path):
        scan = scan_frames(tmp_path / "nope.jsonl")
        assert scan.records == [] and scan.healthy

    def test_clean_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [{"seed": s} for s in range(5)])
        scan = scan_frames(path)
        assert [r["seed"] for r in scan.records] == list(range(5))
        assert scan.healthy

    def test_torn_tail_at_every_byte_offset(self, tmp_path):
        """The acceptance criterion: SIGKILL at any byte offset of an
        append loses at most the record being written."""
        path = tmp_path / "j.jsonl"
        records = [{"seed": s, "m": s * 0.5} for s in range(3)]
        data = write_journal(path, records)
        # boundaries of each committed line
        ends = []
        offset = 0
        while True:
            newline = data.find(b"\n", offset)
            if newline < 0:
                break
            ends.append(newline + 1)
            offset = newline + 1
        for cut in range(len(data) + 1):
            path.write_bytes(data[:cut])
            scan = scan_frames(path)
            committed = sum(1 for end in ends if end <= cut)
            # every newline-terminated record survives; a fragment that
            # is a complete frame minus its newline also verifies
            assert len(scan.records) in (committed, committed + 1)
            assert [r["seed"] for r in scan.records] == \
                [r["seed"] for r in records[:len(scan.records)]]
            if len(scan.records) == committed and cut not in (0, *ends):
                assert scan.torn_tail_bytes > 0
            if len(scan.records) > committed:
                assert scan.torn_tail_bytes == 0

    def test_corrupt_interior_line_is_quarantined_not_torn(self, tmp_path):
        path = tmp_path / "j.jsonl"
        lines = [frame_line({"seed": 0}), "garbage{{{",
                 frame_line({"seed": 2})]
        path.write_text("\n".join(lines) + "\n")
        scan = scan_frames(path)
        assert [r["seed"] for r in scan.records] == [0, 2]
        assert scan.corrupt_lines == [2]
        assert scan.torn_tail_bytes == 0


class TestRecover:
    def test_repair_truncates_torn_tail_in_place(self, tmp_path):
        path = tmp_path / "j.jsonl"
        data = write_journal(path, [{"seed": 0}, {"seed": 1}])
        path.write_bytes(data[:-4])
        before = recover_frames(path, repair=True)
        assert before.torn_tail_bytes > 0
        after = scan_frames(path)
        assert after.healthy and len(after.records) == 1

    def test_repair_quarantines_corrupt_lines(self, tmp_path):
        path = tmp_path / "j.jsonl"
        path.write_text(frame_line({"seed": 0}) + "\n"
                        + "zzz-not-json\n"
                        + frame_line({"seed": 2}) + "\n")
        recover_frames(path, repair=True)
        after = scan_frames(path)
        assert after.healthy and [r["seed"] for r in after.records] == [0, 2]
        quarantine = path.with_name(path.name + ".quarantine")
        assert "zzz-not-json" in quarantine.read_text()

    def test_repair_keeps_bare_rows_bare(self, tmp_path):
        path = tmp_path / "j.jsonl"
        # a bare-row journal with one corrupt line forces a rebuild,
        # which writes the surviving line back byte for byte
        path.write_text(json.dumps({"seed": 0}) + "\n" + "broken{\n")
        recover_frames(path, repair=True)
        assert path.read_text() == json.dumps({"seed": 0}) + "\n"
        after = scan_frames(path)
        assert after.healthy and after.records == [{"seed": 0}]

    def test_scan_only_never_mutates(self, tmp_path):
        path = tmp_path / "j.jsonl"
        data = write_journal(path, [{"seed": 0}])[:-3]
        path.write_bytes(data)
        recover_frames(path, repair=False)
        assert path.read_bytes() == data


class _TearingIO:
    """Hook that truncates the Nth write to a fixed byte count."""

    def __init__(self, tear_op, keep):
        self.tear_op = tear_op
        self.keep = keep
        self.ops = 0
        self.fsyncs = 0

    def apply_write(self, path, data):
        op = self.ops
        self.ops += 1
        if op == self.tear_op:
            return data[:self.keep], None
        return data, None

    def on_fsync(self, path):
        self.fsyncs += 1


class TestAtomicWrite:
    def test_replaces_whole_file(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_text(path, "old")
        atomic_write_text(path, "new")
        assert path.read_text() == "new"
        assert list(tmp_path.iterdir()) == [path]  # no tmp leftovers

    def test_failed_write_keeps_previous_content(self, tmp_path):
        path = tmp_path / "a.json"
        atomic_write_text(path, "precious")

        class Exploding:
            def apply_write(self, p, data):
                return data[: len(data) // 2], OSError(28, "disk full")

            def on_fsync(self, p):
                pass

        with pytest.raises(OSError):
            atomic_write_bytes(path, b"replacement", io=Exploding())
        assert path.read_text() == "precious"
        assert list(tmp_path.iterdir()) == [path]

    def test_creates_parent_dirs(self, tmp_path):
        path = tmp_path / "deep" / "er" / "a.json"
        atomic_write_text(path, "x")
        assert path.read_text() == "x"


class TestDurableAppender:
    def test_unframed_rows_are_bare_json(self, tmp_path):
        path = tmp_path / "journal.jsonl"
        write_journal(path, [{"virtual_time": 1.0}], framed=False)
        row = json.loads(path.read_text().strip())
        assert row == {"virtual_time": 1.0}  # top-level fields, no frame

    def test_torn_hook_shortens_file_by_exact_bytes(self, tmp_path):
        path = tmp_path / "j.jsonl"
        io = _TearingIO(tear_op=1, keep=5)
        with DurableAppender(path, io=io) as appender:
            appender.append({"seed": 0})
            appender.append({"seed": 1})   # torn to 5 bytes
            appender.append({"seed": 2})
        scan = scan_frames(path)
        # record 1's 5-byte stub welds onto record 2's line: one corrupt
        # line, records 0 intact -- exactly what the doctor quarantines
        assert {r["seed"] for r in scan.records} <= {0, 2}
        assert 0 in {r["seed"] for r in scan.records}
        assert not scan.healthy
        assert io.fsyncs == 3

    def test_error_from_hook_propagates_and_counts(self, tmp_path):
        path = tmp_path / "j.jsonl"

        class Failing:
            def apply_write(self, p, data):
                return data[:3], OSError(28, "disk full")

            def on_fsync(self, p):
                pass

        appender = DurableAppender(path, io=Failing())
        with pytest.raises(OSError):
            appender.append({"seed": 0})
        assert appender.errors == 1
        appender.close()

    def test_append_after_eaten_newline_does_not_weld(self, tmp_path):
        # crash ate only the final newline: the record is complete and
        # must survive, and the next append must start its own line
        path = tmp_path / "j.jsonl"
        data = write_journal(path, [{"seed": 0}])
        path.write_bytes(data[:-1])
        with DurableAppender(path) as appender:
            appender.append({"seed": 1})
        scan = scan_frames(path)
        assert scan.healthy
        assert [r["seed"] for r in scan.records] == [0, 1]

    def test_append_after_reopen_continues_file(self, tmp_path):
        path = tmp_path / "j.jsonl"
        write_journal(path, [{"seed": 0}])
        write_journal_2 = DurableAppender(path)
        write_journal_2.append({"seed": 1})
        write_journal_2.close()
        scan = scan_frames(path)
        assert [r["seed"] for r in scan.records] == [0, 1]
